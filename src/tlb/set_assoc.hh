/**
 * @file
 * A generic set-associative cache array with true-LRU replacement,
 * shared by the vanilla and mosaic TLB models.
 *
 * The paper stresses that mosaic's mapping restrictions are
 * orthogonal to the TLB's own cache organization (§3.1): a mosaic TLB
 * can be direct-mapped through fully associative, exactly like a
 * conventional one. This array implements that whole range: ways ==
 * entries gives a fully associative table, ways == 1 direct-mapped.
 *
 * Lookup cost: for small associativities the way scan is already a
 * handful of comparisons, but fully-associative configurations (the
 * Figure 6 grid's 1024-way column, the walk cache, fuzzer geometries)
 * would scan every entry per probe and per fill. Arrays with more
 * than 8 ways are therefore *indexed* (DESIGN.md §12.1):
 *  - a tag index maps each tag to its *lowest-way valid* entry and
 *    its count of valid entries, which makes find/peek O(1) while
 *    preserving the scan's first-match semantics exactly — even for
 *    duplicate tags, which fillConventional can legitimately create;
 *    a set is rescanned only when a tag with a true duplicate loses
 *    the entry the index points at. The index never holds more tags
 *    than the array has entries, so it is a fixed linear-probing
 *    table at load <= 1/2 with backward-shift deletion: no growth,
 *    no tombstones, short probes under constant fill/evict churn;
 *  - a per-set bitmap of invalid ways yields the lowest invalid way;
 *  - a per-set lazy stamp queue yields the exact LRU way: every
 *    recency update appends the entry to its set's queue and records
 *    the append's position as the entry's stamp (in a compact side
 *    array; an invalid entry has none). An element is live while its
 *    position is still its entry's stamp, so the first live element
 *    is the least recently used entry. A hit costs one sequential
 *    4-byte append and a stamp store; stale elements are dropped when
 *    the victim search passes them or a full queue compacts
 *    (renumbering the survivors, order kept).
 * The index relies on every tag embedding its index key (true for
 * all in-tree tag schemes), so a tag determines its set.
 */

#ifndef MOSAIC_TLB_SET_ASSOC_HH_
#define MOSAIC_TLB_SET_ASSOC_HH_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/log.hh"
#include "util/types.hh"

namespace mosaic
{

/** Cache organization of a TLB. */
struct TlbGeometry
{
    /** Total entries (paper: 1024). */
    unsigned entries = 1024;

    /** Associativity; entries for fully associative, 1 for direct. */
    unsigned ways = 4;

    unsigned sets() const { return entries / ways; }

    void
    check() const
    {
        ensure(entries > 0 && ways > 0, "tlb: empty geometry");
        ensure(ways <= entries, "tlb: more ways than entries");
        ensure(entries % ways == 0, "tlb: entries must divide into sets");
    }
};

/**
 * The tag/data array. Replacement is true LRU within a set (a use
 * counter in scan mode, the stamp queue in indexed mode); an invalid
 * way always beats the LRU way, and the lowest invalid way goes first.
 */
template <typename Payload>
class SetAssocArray
{
  public:
    struct Entry
    {
        std::uint64_t tag = 0;
        /** Recency stamp of the way scan (indexed arrays keep theirs
         *  in the stamp queue instead). */
        Tick lastUse = 0;
        bool valid = false;
        Payload payload{};
    };

    /** Lookup strategy: Auto indexes arrays of more than 8 ways;
     *  Scan keeps the way scan at any associativity (the reference
     *  the indexed mode is differentially tested against). */
    enum class Mode { Auto, Scan };

    explicit SetAssocArray(const TlbGeometry &geometry,
                           Mode mode = Mode::Auto)
        : geometry_(geometry), entries_(geometry.entries)
    {
        geometry_.check();
        sets_ = geometry_.sets();
        setsPow2_ = std::has_single_bit(sets_);
        useIndex_ =
            mode == Mode::Auto && geometry_.ways > indexThresholdWays;
        if (!useIndex_)
            return;
        const unsigned ways = geometry_.ways;
        if (std::has_single_bit(ways))
            waysLog2_ = static_cast<unsigned>(std::countr_zero(ways));
        const std::size_t slots =
            std::bit_ceil(2 * std::size_t{geometry_.entries});
        tagSlots_.resize(slots);
        tagShift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
        freeWords_ = (ways + 63) / 64;
        freeWays_.resize(sets_ * freeWords_);
        markAllFree();
        useStamps_.assign(geometry_.entries, noStamp);
        lruCap_ = lruSlack * ways;
        lru_.resize(sets_ * lruCap_);
        lruHead_.assign(sets_, 0);
        lruTail_.assign(sets_, 0);
    }

    const TlbGeometry &geometry() const { return geometry_; }

    /** Set index for an index key (e.g. a VPN or MVPN). */
    std::uint64_t
    setOf(std::uint64_t index_key) const
    {
        // Every lookup needs it: mask when the set count allows.
        return setsPow2_ ? index_key & (sets_ - 1) : index_key % sets_;
    }

    /** Position of an entry of this array, in [0, entries). */
    std::uint64_t
    slotOf(const Entry &e) const
    {
        return static_cast<std::uint64_t>(&e - entries_.data());
    }

    /** Find a valid entry with this tag; updates recency on hit. */
    Entry *
    find(std::uint64_t index_key, std::uint64_t tag)
    {
        if (useIndex_) {
            const TagSlot *slot = findTag(tag);
            if (!slot)
                return nullptr;
            touch(slot->entry);
            return &entries_[slot->entry];
        }
        const std::uint64_t set = setOf(index_key);
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            Entry &e = at(set, w);
            if (e.valid && e.tag == tag) {
                e.lastUse = ++useClock_;
                return &e;
            }
        }
        return nullptr;
    }

    /**
     * Prefetch the tag/data lines of the set an index key maps to —
     * a pure performance hint the batched translation pipeline
     * issues one stage before the lookups that consume them. Indexed
     * (high-associativity) arrays resolve through the tag hash
     * instead of a set scan, so there is nothing useful to warm.
     */
    void
    prefetchSet(std::uint64_t index_key) const
    {
        if (useIndex_)
            return;
        const Entry *base = &entries_[setOf(index_key) * geometry_.ways];
        for (unsigned w = 0; w < geometry_.ways; w += 2)
            __builtin_prefetch(base + w);
    }

    /** Find without updating recency (for inspection). */
    const Entry *
    peek(std::uint64_t index_key, std::uint64_t tag) const
    {
        if (useIndex_) {
            const TagSlot *slot = findTag(tag);
            return slot ? &entries_[slot->entry] : nullptr;
        }
        const std::uint64_t set = setOf(index_key);
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            const Entry &e = at(set, w);
            if (e.valid && e.tag == tag)
                return &e;
        }
        return nullptr;
    }

    /**
     * Claim an entry for this tag: the lowest invalid way if one
     * exists, otherwise the LRU way (setting *evicted). The returned
     * entry is marked valid and most recently used; the caller sets
     * the payload.
     */
    Entry &
    allocate(std::uint64_t index_key, std::uint64_t tag, bool *evicted)
    {
        const std::uint64_t set = setOf(index_key);
        Entry *victim = useIndex_ ? &indexedVictim(set) : &scanVictim(set);
        *evicted = victim->valid;
        if (useIndex_ && victim->valid)
            indexRemove(victim->tag, set, victim);
        victim->valid = true;
        victim->tag = tag;
        victim->payload = Payload{};
        if (useIndex_) {
            indexInsert(tag, victim);
            touch(slotOf(*victim));
        } else {
            victim->lastUse = ++useClock_;
        }
        return *victim;
    }

    /** Invalidate a specific tag; true when something was dropped. */
    bool
    invalidate(std::uint64_t index_key, std::uint64_t tag)
    {
        if (useIndex_) {
            const TagSlot *slot = findTag(tag);
            if (!slot)
                return false;
            const std::uint64_t idx = slot->entry;
            Entry &e = entries_[idx];
            e.valid = false;
            useStamps_[idx] = noStamp;
            const std::uint64_t set = setOfSlot(idx);
            indexRemove(tag, set, &e);
            markFree(set, idx - set * geometry_.ways);
            return true;
        }
        const std::uint64_t set = setOf(index_key);
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            Entry &e = at(set, w);
            if (e.valid && e.tag == tag) {
                e.valid = false;
                return true;
            }
        }
        return false;
    }

    /** Invalidate every entry matching a predicate on (tag, payload);
     *  returns how many were dropped. */
    template <typename Pred>
    unsigned
    invalidateIf(Pred &&pred)
    {
        unsigned dropped = 0;
        for (Entry &e : entries_) {
            if (e.valid && pred(e.tag, e.payload)) {
                e.valid = false;
                ++dropped;
            }
        }
        if (useIndex_ && dropped > 0)
            rebuildIndex();
        return dropped;
    }

    /** Drop everything. */
    void
    flush()
    {
        for (Entry &e : entries_)
            e.valid = false;
        if (!useIndex_)
            return;
        std::fill(tagSlots_.begin(), tagSlots_.end(), TagSlot{});
        markAllFree();
        std::fill(useStamps_.begin(), useStamps_.end(), noStamp);
        std::fill(lruHead_.begin(), lruHead_.end(), 0);
        std::fill(lruTail_.begin(), lruTail_.end(), 0);
    }

    /** Number of currently valid entries. */
    unsigned
    validEntries() const
    {
        unsigned n = 0;
        for (const Entry &e : entries_)
            n += e.valid ? 1 : 0;
        return n;
    }

    /** Visit every valid entry as fn(tag, payload); no recency
     *  effects. Used to total translation reach across an array. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const Entry &e : entries_) {
            if (e.valid)
                fn(e.tag, e.payload);
        }
    }

  private:
    // Below this associativity the way scan beats a hash lookup.
    static constexpr unsigned indexThresholdWays = 8;

    // Stamp-queue capacity per set, in multiples of the ways: a full
    // queue compacts to at most `ways` live elements, so compaction
    // runs at most once per (lruSlack - 1) * ways recency updates.
    static constexpr unsigned lruSlack = 4;

    /** Index slot of a tag: the lowest-way valid entry carrying it
     *  and how many valid entries carry it (duplicates); count == 0
     *  marks an empty slot. */
    struct TagSlot
    {
        std::uint64_t tag = 0;
        std::uint32_t entry = 0;
        std::uint32_t count = 0;
    };

    Entry &
    at(std::uint64_t set, unsigned way)
    {
        return entries_[set * geometry_.ways + way];
    }

    const Entry &
    at(std::uint64_t set, unsigned way) const
    {
        return entries_[set * geometry_.ways + way];
    }

    /** Set of the entry at a slot (indexed mode). */
    std::uint64_t
    setOfSlot(std::uint64_t idx) const
    {
        return waysLog2_ != noLog2 ? idx >> waysLog2_
                                   : idx / geometry_.ways;
    }

    /** The way scan's victim: the lowest invalid way, else the valid
     *  way with the smallest lastUse. */
    Entry &
    scanVictim(std::uint64_t set)
    {
        Entry *victim = nullptr;
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            Entry &e = at(set, w);
            if (!e.valid)
                return e;
            if (!victim || e.lastUse < victim->lastUse)
                victim = &e;
        }
        return *victim;
    }

    /** Make the entry at @p idx its set's most recently used: append
     *  it to the set's queue, the position becoming its stamp
     *  (indexed mode). */
    void
    touch(std::uint64_t idx)
    {
        const std::uint64_t set = setOfSlot(idx);
        if (lruTail_[set] == lruCap_)
            compactLru(set);
        const std::uint32_t pos = lruTail_[set]++;
        lru_[set * lruCap_ + pos] = static_cast<std::uint32_t>(idx);
        useStamps_[idx] = pos;
    }

    /** Is queue position @p pos of @p set its entry's latest? */
    bool
    live(std::uint64_t set, std::uint32_t pos) const
    {
        return useStamps_[lru_[set * lruCap_ + pos]] == pos;
    }

    /** Drop a full queue's stale elements, keeping order, and renumber
     *  the survivors' stamps to their new positions. */
    [[gnu::noinline, gnu::cold]] void
    compactLru(std::uint64_t set)
    {
        std::uint32_t *q = &lru_[set * lruCap_];
        std::uint32_t out = 0;
        for (std::uint32_t i = lruHead_[set]; i < lruTail_[set]; ++i) {
            if (useStamps_[q[i]] == i) {
                useStamps_[q[i]] = out;
                q[out++] = q[i];
            }
        }
        lruHead_[set] = 0;
        lruTail_[set] = out;
    }

    /**
     * The indexed allocate's victim: the lowest invalid way from the
     * bitmap (claimed here), else the first live queue element — the
     * valid entry used least recently, as the scan picks.
     */
    Entry &
    indexedVictim(std::uint64_t set)
    {
        std::uint64_t *words = &freeWays_[set * freeWords_];
        for (unsigned w = 0; w < freeWords_; ++w) {
            if (words[w] != 0) {
                const unsigned bit =
                    static_cast<unsigned>(std::countr_zero(words[w]));
                words[w] &= words[w] - 1;
                return at(set, w * 64 + bit);
            }
        }
        // A full set holds a live element per valid way, so the
        // search stops inside the queue.
        std::uint32_t &head = lruHead_[set];
        while (head < lruTail_[set] && !live(set, head))
            ++head;
        if (head == lruTail_[set])
            panic("set_assoc: LRU queue lost a valid entry");
        return entries_[lru_[set * lruCap_ + head]];
    }

    void
    markFree(std::uint64_t set, std::uint64_t way)
    {
        freeWays_[set * freeWords_ + way / 64] |= std::uint64_t{1}
                                                  << (way % 64);
    }

    void
    markAllFree()
    {
        std::fill(freeWays_.begin(), freeWays_.end(), 0);
        for (std::uint64_t set = 0; set < sets_; ++set) {
            for (unsigned w = 0; w < geometry_.ways; ++w)
                markFree(set, w);
        }
    }

    /** Home slot of a tag: Fibonacci hashing, whose top bits mix
     *  every key bit, so sequential VPNs and ASID bits spread. */
    std::size_t
    homeOf(std::uint64_t tag) const
    {
        return static_cast<std::size_t>(
            (tag * 0x9E3779B97F4A7C15ull) >> tagShift_);
    }

    TagSlot *
    findTag(std::uint64_t tag)
    {
        const std::size_t mask = tagSlots_.size() - 1;
        for (std::size_t i = homeOf(tag);; i = (i + 1) & mask) {
            TagSlot &slot = tagSlots_[i];
            if (slot.count == 0)
                return nullptr;
            if (slot.tag == tag)
                return &slot;
        }
    }

    const TagSlot *
    findTag(std::uint64_t tag) const
    {
        return const_cast<SetAssocArray *>(this)->findTag(tag);
    }

    /** Empty a slot by backward shift: later slots of its probe run
     *  whose home does not lie in (hole, slot] move up into the hole,
     *  so every remaining tag stays reachable from its home. */
    void
    eraseTagSlot(TagSlot *slot)
    {
        const std::size_t mask = tagSlots_.size() - 1;
        auto hole = static_cast<std::size_t>(slot - tagSlots_.data());
        for (std::size_t j = (hole + 1) & mask; tagSlots_[j].count != 0;
             j = (j + 1) & mask) {
            const std::size_t home = homeOf(tagSlots_[j].tag);
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                tagSlots_[hole] = tagSlots_[j];
                hole = j;
            }
        }
        tagSlots_[hole] = TagSlot{};
    }

    /** Count a new valid entry under its tag, pointing the index at
     *  it unless a lower way already holds the same tag (first-match
     *  semantics for duplicates). */
    void
    indexInsert(std::uint64_t tag, const Entry *e)
    {
        const auto idx = static_cast<std::uint32_t>(slotOf(*e));
        std::size_t i = homeOf(tag);
        while (tagSlots_[i].count != 0 && tagSlots_[i].tag != tag)
            i = (i + 1) & (tagSlots_.size() - 1);
        TagSlot &slot = tagSlots_[i];
        if (slot.count == 0 || idx < slot.entry) {
            slot.tag = tag;
            slot.entry = idx;
        }
        ++slot.count;
    }

    /**
     * A valid entry carrying this tag went away (evicted or
     * invalidated). Without a duplicate the mapping is dropped; with
     * one, and only if the index pointed at the departing entry, the
     * set is rescanned for the lowest-way survivor.
     */
    void
    indexRemove(std::uint64_t tag, std::uint64_t set, const Entry *gone)
    {
        TagSlot *slot = findTag(tag);
        if (--slot->count == 0) {
            eraseTagSlot(slot);
            return;
        }
        if (slot->entry != slotOf(*gone))
            return;
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            const Entry &e = at(set, w);
            if (e.valid && e.tag == tag && &e != gone) {
                slot->entry = static_cast<std::uint32_t>(slotOf(e));
                return;
            }
        }
        panic("set_assoc: tag count out of sync with the array");
    }

    void
    rebuildIndex()
    {
        std::fill(tagSlots_.begin(), tagSlots_.end(), TagSlot{});
        std::fill(freeWays_.begin(), freeWays_.end(), 0);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const std::uint64_t set = setOfSlot(i);
            if (!entries_[i].valid) {
                useStamps_[i] = noStamp;
                markFree(set, i - set * geometry_.ways);
                continue;
            }
            // Ascending order keeps the lowest-way invariant.
            indexInsert(entries_[i].tag, &entries_[i]);
        }
    }

    static constexpr unsigned noLog2 = ~0u;
    static constexpr std::uint32_t noStamp = ~0u; // entry invalid

    TlbGeometry geometry_;
    std::uint64_t sets_ = 1;
    bool setsPow2_ = true;
    std::vector<Entry> entries_;
    Tick useClock_ = 0;
    bool useIndex_ = false;

    // Indexed mode only.
    unsigned waysLog2_ = noLog2;
    std::vector<TagSlot> tagSlots_;        // power-of-two slot count
    unsigned tagShift_ = 0;                // 64 - log2(slot count)
    unsigned freeWords_ = 0;
    std::vector<std::uint64_t> freeWays_;  // bit set = way invalid
    std::vector<std::uint32_t> useStamps_; // queue position of last use
    std::uint32_t lruCap_ = 0;
    std::vector<std::uint32_t> lru_;       // [set][lruCap_] entry slots
    std::vector<std::uint32_t> lruHead_;
    std::vector<std::uint32_t> lruTail_;
};

} // namespace mosaic

#endif // MOSAIC_TLB_SET_ASSOC_HH_
