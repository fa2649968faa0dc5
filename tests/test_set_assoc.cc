/**
 * @file
 * Randomized differential test of SetAssocArray's indexed mode (tag
 * index, invalid-way bitmap, lazy LRU stamp queue) against its way
 * scan: at 16, 64 and 1024 ways (plus set and way counts that are
 * not powers of two), over 24 seeds, a mixed stream of
 * find, peek, allocate (with duplicate tags, as fillConventional
 * creates them), invalidate, invalidateIf and flush must pick the
 * same entry on every call in both modes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "tlb/set_assoc.hh"
#include "util/random.hh"

namespace mosaic
{
namespace
{

struct DiffGeometry
{
    unsigned entries;
    unsigned ways;
};

class SetAssocDiffTest : public ::testing::TestWithParam<DiffGeometry>
{
};

using Array = SetAssocArray<std::uint64_t>;

/** Slot of a found entry, or -1 for a miss. */
std::int64_t
slotOrMiss(const Array &arr, const Array::Entry *e)
{
    return e ? static_cast<std::int64_t>(arr.slotOf(*e)) : -1;
}

TEST_P(SetAssocDiffTest, IndexedModeMatchesScanOnEveryCall)
{
    const DiffGeometry g = GetParam();
    const TlbGeometry geometry{g.entries, g.ways};
    const unsigned sets = geometry.sets();
    std::uint64_t evictions = 0;

    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        Array indexed(geometry);
        Array scan(geometry, Array::Mode::Scan);
        Rng rng(seed * 7919 + g.ways);

        // Tags embed their index key (tag % sets is the set), as
        // every in-tree tag scheme does. A pool of 4x the entries
        // keeps a mix of hits, misses and evictions.
        const std::uint64_t pool = 4 * std::uint64_t{g.entries};
        std::vector<std::uint64_t> recent;
        const auto pickTag = [&] {
            if (!recent.empty() && rng.chance(0.7))
                return recent[rng.below(recent.size())];
            return rng.below(pool) * 3 + 1;
        };

        // Runs of repeated tags exercise back-to-back hits on one
        // entry, which leave the recency order unchanged.
        const unsigned ops = 6000 + 8 * g.entries;
        std::uint64_t tag = 0;
        for (unsigned op = 0; op < ops; ++op) {
            const std::uint64_t r = rng.below(10000);
            if (op == 0 || !rng.chance(0.25))
                tag = pickTag();
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " op " << op << " tag "
                         << tag);
            if (r < 4500) {
                Array::Entry *a = indexed.find(tag, tag);
                Array::Entry *b = scan.find(tag, tag);
                ASSERT_EQ(slotOrMiss(indexed, a), slotOrMiss(scan, b));
                if (a) {
                    ASSERT_EQ(a->payload, b->payload);
                }
            } else if (r < 5000) {
                ASSERT_EQ(slotOrMiss(indexed, indexed.peek(tag, tag)),
                          slotOrMiss(scan, scan.peek(tag, tag)));
            } else if (r < 9500) {
                // Fill without a prior find about half the time: a
                // present tag then gains a duplicate entry.
                if (rng.chance(0.5)) {
                    Array::Entry *a = indexed.find(tag, tag);
                    Array::Entry *b = scan.find(tag, tag);
                    ASSERT_EQ(slotOrMiss(indexed, a),
                              slotOrMiss(scan, b));
                    if (a)
                        continue;
                }
                bool ev_a = false, ev_b = false;
                Array::Entry &a = indexed.allocate(tag, tag, &ev_a);
                Array::Entry &b = scan.allocate(tag, tag, &ev_b);
                ASSERT_EQ(indexed.slotOf(a), scan.slotOf(b));
                ASSERT_EQ(ev_a, ev_b);
                evictions += ev_a ? 1 : 0;
                a.payload = b.payload = op;
                recent.push_back(tag);
                if (recent.size() > g.entries)
                    recent.erase(recent.begin());
            } else {
                ASSERT_EQ(indexed.invalidate(tag, tag),
                          scan.invalidate(tag, tag));
            }

            // Bulk drops are rare relative to the array size, so the
            // sets fill up and the LRU path runs between them.
            if (rng.below(2 * g.entries) == 0) {
                const std::uint64_t mod = 2 + rng.below(5);
                const auto pred = [&](std::uint64_t t,
                                      const std::uint64_t &) {
                    return (t / sets) % mod == 0;
                };
                ASSERT_EQ(indexed.invalidateIf(pred),
                          scan.invalidateIf(pred));
            }
            if (rng.below(8 * g.entries) == 0) {
                indexed.flush();
                scan.flush();
            }
        }
        ASSERT_EQ(indexed.validEntries(), scan.validEntries());
    }
    // The LRU path must actually run, not only invalid-way fills.
    EXPECT_GT(evictions, 24u * g.entries / 4) << evictions;
}

INSTANTIATE_TEST_SUITE_P(
    Ways, SetAssocDiffTest,
    ::testing::Values(DiffGeometry{256, 16}, DiffGeometry{256, 64},
                      DiffGeometry{1024, 1024},
                      // Set and way counts that are not powers of two.
                      DiffGeometry{240, 16}, DiffGeometry{96, 12}),
    [](const ::testing::TestParamInfo<DiffGeometry> &info) {
        return std::to_string(info.param.entries) + "x" +
               std::to_string(info.param.ways) + "way";
    });

} // namespace
} // namespace mosaic
