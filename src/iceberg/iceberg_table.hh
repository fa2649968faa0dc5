/**
 * @file
 * A generic, stable Iceberg hash table (Bender et al., "All-Purpose
 * Hashing"), the hashing scheme underlying Mosaic page allocation
 * (paper §2.3).
 *
 * Structure: the table is an array of buckets; each bucket has a
 * large *front yard* of f slots and a small *backyard* of b slots.
 * A key hashes to one front-yard bucket (h0) and to d backyard
 * buckets (h1..hd). Insertion first tries the front yard; if it is
 * full, the key goes to the emptiest of its d candidate backyards
 * (power of d choices).
 *
 * The three properties Mosaic needs hold by construction:
 *  - low associativity: a key can live in only f + d*b slots;
 *  - stability: an item never moves after insertion;
 *  - high utilization: with f = 56, b = 8, d = 6 the first failed
 *    insertion empirically occurs at ~98 % load (Table 3).
 *
 * Probe mechanics (DESIGN.md §12): occupancy is a per-bucket bitmask
 * (one bit per slot), so free-slot choice is countr_zero, fill counts
 * are popcount, and the power-of-d comparison never scans slots. Key
 * search goes through one-byte fingerprints packed eight per word and
 * matched with SWAR; full keys are compared only on fingerprint hits.
 * All d+1 bucket choices come from one batched tabulation pass
 * (TabulationHash::probeAll, 8 table reads total). Every placement
 * decision is bit-identical to the former slot-scanning code.
 */

#ifndef MOSAIC_ICEBERG_ICEBERG_TABLE_HH_
#define MOSAIC_ICEBERG_ICEBERG_TABLE_HH_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "hash/mix.hh"
#include "hash/tabulation.hh"
#include "util/fastmod.hh"
#include "util/log.hh"

namespace mosaic
{

/** Static shape parameters of an iceberg table / mosaic memory. */
struct IcebergConfig
{
    /** Number of buckets. */
    std::size_t buckets = 1024;

    /** Front-yard slots per bucket (f). */
    unsigned frontSlots = 56;

    /** Backyard slots per bucket (b). */
    unsigned backSlots = 8;

    /** Number of backyard candidate buckets (d). */
    unsigned backChoices = 6;

    /** Seed for the tabulation hash tables. */
    std::uint64_t seed = 1;

    /** Total slots: f + b per bucket. */
    std::size_t capacity() const
    {
        return buckets * (frontSlots + backSlots);
    }

    /** Associativity h = f + d*b (104 with paper defaults). */
    unsigned associativity() const
    {
        return frontSlots + backChoices * backSlots;
    }
};

/** Which yard a slot belongs to. */
enum class Yard : std::uint8_t { Front, Back };

/** Identifies one slot in the table. */
struct SlotRef
{
    Yard yard = Yard::Front;
    std::size_t bucket = 0;
    unsigned slot = 0;

    bool operator==(const SlotRef &) const = default;
};

/**
 * The iceberg hash table, mapping 64-bit keys to values.
 *
 * @tparam Value the mapped type; must be movable and
 *         default-constructible.
 */
template <typename Value>
class IcebergTable
{
  public:
    /**
     * Word traffic on the probe path, for the complexity tests: a
     * lookup or insert must touch a constant number of words (the
     * bucket's occupancy and fingerprint words), never O(slots)
     * structures, and full-key comparisons should stay near one per
     * probe (fingerprint false positives are ~occupancy/256).
     */
    struct ProbeCounters
    {
        /** Occupancy + fingerprint words read while probing. */
        std::uint64_t wordReads = 0;

        /** Full 64-bit key comparisons (fingerprint hits only). */
        std::uint64_t keyCompares = 0;
    };

    explicit IcebergTable(const IcebergConfig &config)
        : config_(config),
          hasher_(config.seed),
          frontWords_((config.frontSlots + 63) / 64),
          backWords_((config.backSlots + 63) / 64),
          frontFpWords_((config.frontSlots + 7) / 8),
          backFpWords_((config.backSlots + 7) / 8)
    {
        ensure(config.buckets > 0, "iceberg: need at least one bucket");
        ensure(config.backChoices >= 1, "iceberg: need d >= 1");
        ensure(config.frontSlots > 0, "iceberg: need front slots");
        ensure(config.backSlots > 0, "iceberg: need back slots");
        ensure(config.backChoices + 1 <= maxProbeBatch,
               "iceberg: too many backyard choices");
        if (config.buckets <= UINT32_MAX)
            bucketMod_ = FastMod32(
                static_cast<std::uint32_t>(config.buckets));

        occFront_.assign(config.buckets * frontWords_, 0);
        occBack_.assign(config.buckets * backWords_, 0);
        fpFront_.assign(config.buckets * frontFpWords_, 0);
        fpBack_.assign(config.buckets * backFpWords_, 0);
        keysFront_.assign(config.buckets * config.frontSlots, 0);
        keysBack_.assign(config.buckets * config.backSlots, 0);
        valsFront_.resize(config.buckets * config.frontSlots);
        valsBack_.resize(config.buckets * config.backSlots);
    }

    /** Shape parameters this table was built with. */
    const IcebergConfig &config() const { return config_; }

    /** Number of stored items. */
    std::size_t size() const { return size_; }

    /** Total slot capacity. */
    std::size_t capacity() const { return config_.capacity(); }

    /** Current load factor in [0, 1]. */
    double loadFactor() const
    {
        return static_cast<double>(size_) / static_cast<double>(capacity());
    }

    /** Items currently stored in backyards (for balance analysis). */
    std::size_t backyardSize() const { return backSize_; }

    /** Probe-path word traffic since the last reset (testing). */
    const ProbeCounters &probeCounters() const { return counters_; }

    /** Reset the probe counters (testing). */
    void resetProbeCounters() { counters_ = {}; }

    /**
     * Install a fault hook consulted on each fresh insert (after the
     * overwrite fast path): when it returns true, the insert fails
     * as if by an associativity conflict and the table is unchanged.
     * Used by the fault-injection harness ("iceberg.insert" site,
     * DESIGN.md §11) without this header depending on it. An empty
     * function clears the hook.
     */
    void setFaultHook(std::function<bool()> hook)
    {
        faultHook_ = std::move(hook);
    }

    /**
     * Insert or overwrite. Returns false on an associativity
     * conflict: all f + d*b candidate slots are occupied by other
     * keys. The table is unchanged in that case.
     */
    bool
    insert(std::uint64_t key, Value value)
    {
        const unsigned n = config_.backChoices + 1;
        std::size_t bkts[maxProbeBatch];
        probeBuckets(key, bkts, n);

        const Loc loc = findLoc(key, bkts, n);
        if (loc.found) {
            valueAt(loc) = std::move(value);
            return true;
        }

        if (faultHook_ && faultHook_())
            return false; // injected insert failure; table unchanged

        const int fs = firstFree(&occFront_[bkts[0] * frontWords_],
                                 frontWords_, config_.frontSlots);
        if (fs >= 0) {
            fill(Loc{true, false, bkts[0], unsigned(fs)}, key,
                 std::move(value));
            return true;
        }

        // Front yard full: power-of-d-choices over backyards.
        std::size_t best = config_.buckets; // invalid
        unsigned best_occupancy = config_.backSlots + 1;
        for (unsigned k = 0; k < config_.backChoices; ++k) {
            const std::size_t b = bkts[k + 1];
            const unsigned occ = backOccupancy(b);
            if (occ < best_occupancy) {
                best_occupancy = occ;
                best = b;
            }
        }
        if (best == config_.buckets ||
                best_occupancy >= config_.backSlots) {
            return false; // associativity conflict
        }
        const int bs = firstFree(&occBack_[best * backWords_],
                                 backWords_, config_.backSlots);
        if (bs < 0)
            panic("iceberg: occupancy accounting out of sync");
        fill(Loc{true, true, best, unsigned(bs)}, key, std::move(value));
        ++backSize_;
        return true;
    }

    /** Look up a key; nullptr when absent. Pointer stays valid until
     *  the key is erased (stability). */
    Value *
    find(std::uint64_t key)
    {
        const Loc loc = locateLoc(key);
        return loc.found ? &valueAt(loc) : nullptr;
    }

    const Value *
    find(std::uint64_t key) const
    {
        auto *self = const_cast<IcebergTable *>(this);
        return self->find(key);
    }

    /** True when the key is present. */
    bool contains(std::uint64_t key) const { return find(key) != nullptr; }

    /**
     * Batched lookup: out[i] receives exactly the pointer
     * find(keys[i]) would return. The block is software-pipelined:
     * (1) all h0 hashes in one batched tabulation sweep, (2) a
     * stable sort by front bucket so keys sharing a bucket form
     * runs, (3) a prefetch stage that issues the fingerprint /
     * occupancy cache lines one stage before (4) the multi-key SWAR
     * compare consumes them, sweeping every key of a run over each
     * bucket word loaded once. Front-yard misses fall through to
     * batched backyard probing (probeAllMany) in scalar probe order.
     * Results land in the caller's original key order and the probe
     * counters advance exactly as keys.size() scalar find() calls
     * would — batching shares physical cache traffic, not modeled
     * per-key cost.
     */
    void
    findMany(std::span<const std::uint64_t> keys, Value **out)
    {
        for (std::size_t base = 0; base < keys.size();
             base += maxProbeBatch) {
            const std::size_t n =
                std::min<std::size_t>(maxProbeBatch, keys.size() - base);
            findChunk(keys.subspan(base, n), out + base);
        }
    }

    void
    findMany(std::span<const std::uint64_t> keys,
             const Value **out) const
    {
        auto *self = const_cast<IcebergTable *>(this);
        self->findMany(keys, const_cast<Value **>(out));
    }

    /** Remove a key. Returns false when it was absent. */
    bool
    erase(std::uint64_t key)
    {
        const Loc loc = locateLoc(key);
        if (!loc.found)
            return false;
        if (loc.back)
            --backSize_;
        occWord(loc) &= ~(1ull << (loc.slot % 64));
        valueAt(loc) = Value{};
        --size_;
        return true;
    }

    /**
     * Where a key is stored, for stability tests and analysis;
     * nullopt when the key is absent.
     */
    std::optional<SlotRef>
    locate(std::uint64_t key) const
    {
        const Loc loc = locateLoc(key);
        if (!loc.found)
            return std::nullopt;
        return SlotRef{loc.back ? Yard::Back : Yard::Front, loc.bucket,
                       loc.slot};
    }

    /** Front-yard bucket index for a key (h0). */
    std::size_t
    frontBucket(std::uint64_t key) const
    {
        return reduce(hasher_.hash(key, 0));
    }

    /** k-th backyard candidate bucket for a key (h_{k+1}). */
    std::size_t
    backBucket(std::uint64_t key, unsigned k) const
    {
        return reduce(hasher_.hash(key, k + 1));
    }

    /** Number of used backyard slots in bucket b. */
    unsigned
    backOccupancy(std::size_t b) const
    {
        return popcountWords(&occBack_[b * backWords_], backWords_);
    }

    /** Number of used front-yard slots in bucket b. */
    unsigned
    frontOccupancy(std::size_t b) const
    {
        return popcountWords(&occFront_[b * frontWords_], frontWords_);
    }

    /**
     * Visit every used slot as (ref, key, value). Lets an external
     * oracle verify that the table holds exactly the keys it should
     * — no strays, no leaks — without widening the mutation API.
     */
    template <typename Fn>
    void
    forEachSlot(Fn &&fn) const
    {
        for (std::size_t b = 0; b < config_.buckets; ++b) {
            forEachUsed(&occFront_[b * frontWords_], frontWords_,
                        [&](unsigned i) {
                fn(SlotRef{Yard::Front, b, i},
                   keysFront_[b * config_.frontSlots + i],
                   valsFront_[b * config_.frontSlots + i]);
            });
            forEachUsed(&occBack_[b * backWords_], backWords_,
                        [&](unsigned i) {
                fn(SlotRef{Yard::Back, b, i},
                   keysBack_[b * config_.backSlots + i],
                   valsBack_[b * config_.backSlots + i]);
            });
        }
    }

  private:
    /** Largest d+1 the stack probe buffers support. */
    static constexpr unsigned maxProbeBatch = 64;

    static constexpr std::uint64_t lowBytes = 0x0101010101010101ull;
    static constexpr std::uint64_t highBits = 0x8080808080808080ull;

    struct Loc
    {
        bool found = false;
        bool back = false;
        std::size_t bucket = 0;
        unsigned slot = 0;
    };

    /** One-byte key fingerprint; collisions only cost a key compare. */
    static std::uint8_t
    fingerprint(std::uint64_t key)
    {
        return static_cast<std::uint8_t>(mix64(key) >> 56);
    }

    std::size_t
    reduce(std::uint32_t h) const
    {
        if (config_.buckets <= UINT32_MAX)
            return bucketMod_.mod(h);
        return h % config_.buckets;
    }

    /**
     * All n bucket choices of a key in one batched hash pass. The
     * front-yard choice bkts[0] always exists (n = d + 1 >= 2, as the
     * constructor enforces), so it is written outside the loop: every
     * caller reads it unconditionally.
     */
    void
    probeBuckets(std::uint64_t key, std::size_t *bkts, unsigned n) const
    {
        std::uint32_t h[maxProbeBatch];
        if (n <= TabulationHash::maxProbes)
            hasher_.probeAll(key, {h, n});
        else
            hasher_.hashMany(key, {h, n});
        bkts[0] = reduce(h[0]);
        for (unsigned i = 1; i < n; ++i)
            bkts[i] = reduce(h[i]);
    }

    std::uint64_t &
    occWord(const Loc &loc)
    {
        return loc.back
            ? occBack_[loc.bucket * backWords_ + loc.slot / 64]
            : occFront_[loc.bucket * frontWords_ + loc.slot / 64];
    }

    Value &
    valueAt(const Loc &loc)
    {
        return loc.back
            ? valsBack_[loc.bucket * config_.backSlots + loc.slot]
            : valsFront_[loc.bucket * config_.frontSlots + loc.slot];
    }

    /**
     * SWAR fingerprint search for key in one yard of one bucket.
     * Touches one fingerprint word per 8 slots plus the occupancy
     * byte; compares full keys only where a fingerprint byte matches.
     * Returns the lowest matching slot, or -1.
     */
    int
    matchIn(bool back, std::size_t b, std::uint64_t key,
            std::uint64_t fp_pattern) const
    {
        const unsigned fp_words = back ? backFpWords_ : frontFpWords_;
        const unsigned slots = back ? config_.backSlots
                                    : config_.frontSlots;
        const std::uint64_t *fps = back
            ? &fpBack_[b * backFpWords_]
            : &fpFront_[b * frontFpWords_];
        const std::uint64_t *occ = back
            ? &occBack_[b * backWords_]
            : &occFront_[b * frontWords_];
        const std::uint64_t *keys = back
            ? &keysBack_[b * slots]
            : &keysFront_[b * slots];

        counters_.wordReads += back ? backWords_ : frontWords_;
        for (unsigned w = 0; w < fp_words; ++w) {
            ++counters_.wordReads;
            const std::uint64_t x = fps[w] ^ fp_pattern;
            const std::uint64_t hit = (x - lowBytes) & ~x & highBits;
            if (!hit)
                continue;
            // Compress the per-byte high bits to one bit per slot,
            // then mask with this 8-slot window's occupancy byte.
            std::uint64_t cand =
                ((hit >> 7) * 0x0102040810204080ull) >> 56;
            cand &= (occ[w / 8] >> ((w % 8) * 8)) & 0xFF;
            while (cand) {
                const unsigned slot =
                    8 * w + unsigned(std::countr_zero(cand));
                cand &= cand - 1;
                ++counters_.keyCompares;
                if (keys[slot] == key)
                    return int(slot);
            }
        }
        return -1;
    }

    /** Find the key among precomputed bucket choices (front first,
     *  then backyards in probe order — same as the scanning code). */
    Loc
    findLoc(std::uint64_t key, const std::size_t *bkts,
            unsigned n) const
    {
        const std::uint64_t pattern = lowBytes * fingerprint(key);
        int s = matchIn(false, bkts[0], key, pattern);
        if (s >= 0)
            return Loc{true, false, bkts[0], unsigned(s)};
        for (unsigned k = 1; k < n; ++k) {
            s = matchIn(true, bkts[k], key, pattern);
            if (s >= 0)
                return Loc{true, true, bkts[k], unsigned(s)};
        }
        return Loc{};
    }

    /**
     * Lazy lookup: most keys live in their front-yard bucket, so
     * hash only h0 first and batch the backyard probes on a front
     * miss. A front hit costs 8 table reads + one SWAR scan, like
     * the hardware's common case.
     */
    Loc
    locateLoc(std::uint64_t key) const
    {
        const std::uint64_t pattern = lowBytes * fingerprint(key);
        const std::size_t fb = reduce(hasher_.hash(key, 0));
        const int s = matchIn(false, fb, key, pattern);
        if (s >= 0)
            return Loc{true, false, fb, unsigned(s)};
        const unsigned n = config_.backChoices + 1;
        std::size_t bkts[maxProbeBatch];
        probeBuckets(key, bkts, n);
        for (unsigned k = 1; k < n; ++k) {
            const int bs = matchIn(true, bkts[k], key, pattern);
            if (bs >= 0)
                return Loc{true, true, bkts[k], unsigned(bs)};
        }
        return Loc{};
    }

    /** Prefetch the probe-path cache lines of one yard of bucket b
     *  (occupancy word, first fingerprint word, first key line). */
    void
    prefetchYard(bool back, std::size_t b) const
    {
        if (back) {
            __builtin_prefetch(&occBack_[b * backWords_]);
            __builtin_prefetch(&fpBack_[b * backFpWords_]);
            __builtin_prefetch(&keysBack_[b * config_.backSlots]);
        } else {
            __builtin_prefetch(&occFront_[b * frontWords_]);
            __builtin_prefetch(&fpFront_[b * frontFpWords_]);
            __builtin_prefetch(&keysFront_[b * config_.frontSlots]);
        }
    }

    /**
     * Multi-key SWAR search: all `run` keys hash to the same bucket
     * of one yard, so every fingerprint word is loaded once and swept
     * against each still-unresolved key's pattern. slots[r] gets the
     * lowest match of keys[r], or -1. The counters advance exactly as
     * `run` scalar matchIn() calls: each key is charged the occupancy
     * words up front and one read per fingerprint word it is still
     * unresolved at, and one key compare per occupied fingerprint hit
     * up to and including its match — identical early-exit shape.
     */
    void
    matchRunIn(bool back, std::size_t b,
               const std::uint64_t *run_keys,
               const std::uint64_t *patterns, std::size_t run,
               int *slots_out) const
    {
        const unsigned fp_words = back ? backFpWords_ : frontFpWords_;
        const std::uint64_t *fps = back
            ? &fpBack_[b * backFpWords_]
            : &fpFront_[b * frontFpWords_];
        const std::uint64_t *occ = back
            ? &occBack_[b * backWords_]
            : &occFront_[b * frontWords_];
        const std::uint64_t *keys = back
            ? &keysBack_[b * config_.backSlots]
            : &keysFront_[b * config_.frontSlots];

        counters_.wordReads +=
            std::uint64_t{back ? backWords_ : frontWords_} * run;
        bool done[maxProbeBatch] = {};
        std::size_t open = run;
        for (std::size_t r = 0; r < run; ++r)
            slots_out[r] = -1;
        for (unsigned w = 0; w < fp_words && open > 0; ++w) {
            const std::uint64_t fpw = fps[w];
            const std::uint64_t occ_byte =
                (occ[w / 8] >> ((w % 8) * 8)) & 0xFF;
            for (std::size_t r = 0; r < run; ++r) {
                if (done[r])
                    continue;
                ++counters_.wordReads;
                const std::uint64_t x = fpw ^ patterns[r];
                const std::uint64_t hit =
                    (x - lowBytes) & ~x & highBits;
                if (!hit)
                    continue;
                std::uint64_t cand =
                    ((hit >> 7) * 0x0102040810204080ull) >> 56;
                cand &= occ_byte;
                while (cand) {
                    const unsigned slot =
                        8 * w + unsigned(std::countr_zero(cand));
                    cand &= cand - 1;
                    ++counters_.keyCompares;
                    if (keys[slot] == run_keys[r]) {
                        slots_out[r] = int(slot);
                        done[r] = true;
                        --open;
                        break;
                    }
                }
            }
        }
    }

    /** One <= maxProbeBatch chunk of findMany(). */
    void
    findChunk(std::span<const std::uint64_t> keys, Value **out)
    {
        const std::size_t n = keys.size();
        std::uint32_t h0[maxProbeBatch];
        std::size_t fb[maxProbeBatch];
        std::uint64_t patterns[maxProbeBatch];
        std::uint64_t order[maxProbeBatch];

        // Stage 1: batched h0 hashing (same function and accounting
        // as the scalar locateLoc front probe).
        hasher_.hashKeys(keys, 0, h0);
        for (std::size_t i = 0; i < n; ++i) {
            fb[i] = reduce(h0[i]);
            patterns[i] = lowBytes * fingerprint(keys[i]);
            // Pack (bucket, index): sorting the packed words groups
            // same-bucket keys while staying stable by construction
            // (the index makes every word distinct). Cheaper than an
            // indirect stable_sort for these tiny chunks.
            order[i] = (std::uint64_t{fb[i]} << 8) | i;
        }
        std::sort(order, order + n);

        // Stage 2: issue every run's cache lines before any compare
        // consumes them — the prefetch-ahead stage of the pipeline.
        for (std::size_t i = 0; i < n; ++i) {
            if (i == 0 || (order[i] >> 8) != (order[i - 1] >> 8))
                prefetchYard(false, order[i] >> 8);
        }

        // Stage 3: multi-key front-yard compares, one run per bucket.
        // Singleton runs — the common case when the bucket count far
        // exceeds the chunk — take the scalar compare, which has the
        // identical counter shape without the run bookkeeping.
        std::uint64_t run_keys[maxProbeBatch];
        std::uint64_t run_patterns[maxProbeBatch];
        int run_slots[maxProbeBatch];
        std::uint8_t miss[maxProbeBatch];
        std::size_t misses = 0;
        for (std::size_t i = 0; i < n;) {
            std::size_t j = i + 1;
            while (j < n && (order[j] >> 8) == (order[i] >> 8))
                ++j;
            const std::size_t run = j - i;
            const std::size_t bucket = order[i] >> 8;
            if (run == 1) {
                const std::uint8_t idx = order[i] & 0xFF;
                const int s =
                    matchIn(false, bucket, keys[idx], patterns[idx]);
                if (s >= 0)
                    out[idx] = &valueAt(
                        Loc{true, false, bucket, unsigned(s)});
                else
                    miss[misses++] = idx;
                i = j;
                continue;
            }
            for (std::size_t r = 0; r < run; ++r) {
                const std::uint8_t idx = order[i + r] & 0xFF;
                run_keys[r] = keys[idx];
                run_patterns[r] = patterns[idx];
            }
            matchRunIn(false, bucket, run_keys, run_patterns, run,
                       run_slots);
            for (std::size_t r = 0; r < run; ++r) {
                const std::uint8_t idx = order[i + r] & 0xFF;
                if (run_slots[r] >= 0)
                    out[idx] = &valueAt(Loc{true, false, bucket,
                                            unsigned(run_slots[r])});
                else
                    miss[misses++] = idx;
            }
            i = j;
        }
        if (misses == 0)
            return;

        // Stage 4: front misses re-probe all d+1 choices in one
        // batched tabulation sweep (scalar locateLoc does the same
        // per key via probeBuckets), then walk the backyards in probe
        // order with the next key's buckets prefetched one key ahead.
        const unsigned nc = config_.backChoices + 1;
        std::uint64_t miss_keys[maxProbeBatch];
        for (std::size_t m = 0; m < misses; ++m)
            miss_keys[m] = keys[miss[m]];
        std::uint32_t hbuf[maxProbeBatch * TabulationHash::maxProbes];
        std::vector<std::uint32_t> hwide;
        std::uint32_t *h = hbuf;
        if (nc <= TabulationHash::maxProbes) {
            hasher_.probeAllMany({miss_keys, misses}, nc, hbuf);
        } else {
            hwide.resize(misses * nc);
            for (std::size_t m = 0; m < misses; ++m)
                hasher_.hashMany(miss_keys[m], {&hwide[m * nc], nc});
            h = hwide.data();
        }
        // A miss walks d dependent buckets, so the lookahead runs
        // several keys deep to keep that many lines in flight.
        constexpr std::size_t lookahead = 4;
        for (std::size_t m = 0; m < misses && m < lookahead; ++m) {
            for (unsigned k = 1; k < nc; ++k)
                prefetchYard(true, reduce(h[m * nc + k]));
        }
        for (std::size_t m = 0; m < misses; ++m) {
            if (m + lookahead < misses) {
                for (unsigned k = 1; k < nc; ++k) {
                    prefetchYard(
                        true, reduce(h[(m + lookahead) * nc + k]));
                }
            }
            const std::uint8_t idx = miss[m];
            out[idx] = nullptr;
            for (unsigned k = 1; k < nc; ++k) {
                const std::size_t bb = reduce(h[m * nc + k]);
                const int s = matchIn(true, bb, miss_keys[m],
                                      patterns[idx]);
                if (s >= 0) {
                    out[idx] =
                        &valueAt(Loc{true, true, bb, unsigned(s)});
                    break;
                }
            }
        }
    }

    /** Lowest free slot index per the occupancy words, or -1. */
    static int
    firstFree(const std::uint64_t *occ, unsigned words, unsigned slots)
    {
        for (unsigned w = 0; w < words; ++w) {
            const unsigned in_word = std::min(64u, slots - 64 * w);
            const std::uint64_t valid = in_word == 64
                ? ~0ull
                : (1ull << in_word) - 1;
            const std::uint64_t free = ~occ[w] & valid;
            if (free)
                return int(64 * w + std::countr_zero(free));
        }
        return -1;
    }

    static unsigned
    popcountWords(const std::uint64_t *occ, unsigned words)
    {
        unsigned n = 0;
        for (unsigned w = 0; w < words; ++w)
            n += unsigned(std::popcount(occ[w]));
        return n;
    }

    template <typename Fn>
    static void
    forEachUsed(const std::uint64_t *occ, unsigned words, Fn &&fn)
    {
        for (unsigned w = 0; w < words; ++w) {
            std::uint64_t m = occ[w];
            while (m) {
                fn(64 * w + unsigned(std::countr_zero(m)));
                m &= m - 1;
            }
        }
    }

    void
    fill(const Loc &loc, std::uint64_t key, Value value)
    {
        occWord(loc) |= 1ull << (loc.slot % 64);
        std::uint64_t &fpw = loc.back
            ? fpBack_[loc.bucket * backFpWords_ + loc.slot / 8]
            : fpFront_[loc.bucket * frontFpWords_ + loc.slot / 8];
        const unsigned shift = (loc.slot % 8) * 8;
        fpw = (fpw & ~(0xFFull << shift)) |
              (std::uint64_t(fingerprint(key)) << shift);
        (loc.back ? keysBack_[loc.bucket * config_.backSlots + loc.slot]
                  : keysFront_[loc.bucket * config_.frontSlots +
                               loc.slot]) = key;
        valueAt(loc) = std::move(value);
        ++size_;
    }

    IcebergConfig config_;
    TabulationHash hasher_;
    unsigned frontWords_;
    unsigned backWords_;
    unsigned frontFpWords_;
    unsigned backFpWords_;
    FastMod32 bucketMod_;

    // Structure-of-arrays storage: per-bucket occupancy bitmask
    // words, packed fingerprint bytes, then flat key/value arrays.
    // Nothing reallocates after construction, so value pointers are
    // stable for the life of the entry (the stability contract).
    std::vector<std::uint64_t> occFront_;
    std::vector<std::uint64_t> occBack_;
    std::vector<std::uint64_t> fpFront_;
    std::vector<std::uint64_t> fpBack_;
    std::vector<std::uint64_t> keysFront_;
    std::vector<std::uint64_t> keysBack_;
    std::vector<Value> valsFront_;
    std::vector<Value> valsBack_;

    std::size_t size_ = 0;
    std::size_t backSize_ = 0;
    std::function<bool()> faultHook_;
    mutable ProbeCounters counters_;
};

} // namespace mosaic

#endif // MOSAIC_ICEBERG_ICEBERG_TABLE_HH_
