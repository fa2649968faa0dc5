/**
 * @file
 * Tests for the radix tree and both page tables: mapping lifecycle,
 * walk results and reference counts, ToC leaves (Figure 5), and
 * iteration.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <span>
#include <vector>

#include "pt/mosaic_page_table.hh"
#include "pt/radix_tree.hh"
#include "pt/vanilla_page_table.hh"
#include "util/random.hh"

namespace mosaic
{
namespace
{

TEST(RadixTree, LevelsFromKeyBits)
{
    EXPECT_EQ(RadixTree<int>(9).levels(), 1u);
    EXPECT_EQ(RadixTree<int>(10).levels(), 2u);
    EXPECT_EQ(RadixTree<int>(36).levels(), 4u);
    EXPECT_EQ(RadixTree<int>(27).levels(), 3u);
}

TEST(RadixTree, GetOrCreateThenFind)
{
    RadixTree<int> t(36);
    t.getOrCreate(0x123456789) = 42;
    int *leaf = t.find(0x123456789);
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(*leaf, 42);
    // A key on the same path but in the same leaf node resolves to a
    // default-constructed leaf; a key in an untouched subtree finds
    // no leaf node at all.
    ASSERT_NE(t.find(0x123456788), nullptr);
    EXPECT_EQ(*t.find(0x123456788), 0);
    EXPECT_EQ(t.find(0x823456789), nullptr);
}

TEST(RadixTree, FindReportsWalkLength)
{
    RadixTree<int> t(36);
    t.getOrCreate(99);
    unsigned refs = 0;
    t.find(99, &refs);
    EXPECT_EQ(refs, 4u);
    refs = 0;
    t.getOrCreate(99, &refs);
    EXPECT_EQ(refs, 4u);
}

TEST(RadixTree, SparseKeysDoNotInterfere)
{
    RadixTree<std::uint64_t> t(36);
    std::map<std::uint64_t, std::uint64_t> model;
    std::uint64_t x = 1;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ull + 1;
        const std::uint64_t key = x >> 28; // 36-bit keys
        t.getOrCreate(key) = x;
        model[key] = x;
    }
    for (const auto &[key, value] : model) {
        auto *leaf = t.find(key);
        ASSERT_NE(leaf, nullptr);
        EXPECT_EQ(*leaf, value);
    }
}

TEST(RadixTree, ForEachVisitsLeavesWithKeys)
{
    RadixTree<int> t(18);
    t.getOrCreate(5) = 50;
    t.getOrCreate(100000) = 77;
    std::map<std::uint64_t, int> seen;
    t.forEach([&](std::uint64_t key, int &leaf) {
        if (leaf != 0)
            seen[key] = leaf;
    });
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[5], 50);
    EXPECT_EQ(seen[100000], 77);
}

TEST(RadixTree, SingleLevelTree)
{
    RadixTree<int> t(5);
    t.getOrCreate(31) = 3;
    unsigned refs = 0;
    EXPECT_EQ(*t.find(31, &refs), 3);
    EXPECT_EQ(refs, 1u);
}

TEST(VanillaPt, MapWalkUnmap)
{
    VanillaPageTable pt;
    EXPECT_FALSE(pt.walk(123).present);
    pt.map(123, 456);
    const auto walk = pt.walk(123);
    EXPECT_TRUE(walk.present);
    EXPECT_EQ(walk.pfn, 456u);
    EXPECT_FALSE(walk.huge);
    EXPECT_EQ(pt.mapped4k(), 1u);
    pt.unmap(123);
    EXPECT_FALSE(pt.walk(123).present);
    EXPECT_EQ(pt.mapped4k(), 0u);
}

TEST(VanillaPt, WalkLengthMatchesX86)
{
    VanillaPageTable pt;
    pt.map(1, 1);
    EXPECT_EQ(pt.walk(1).memRefs, 4u);
    pt.mapHuge(512, 1024);
    const auto walk = pt.walk(512 + 5);
    EXPECT_TRUE(walk.huge);
    EXPECT_EQ(walk.memRefs, 3u);
}

TEST(VanillaPt, HugeMappingCoversRegionAndComputesOffset)
{
    VanillaPageTable pt;
    pt.mapHuge(1024, 8192);
    for (Vpn v = 1024; v < 1536; v += 100) {
        const auto walk = pt.walk(v);
        ASSERT_TRUE(walk.present);
        EXPECT_EQ(walk.pfn, 8192 + (v - 1024));
    }
    EXPECT_FALSE(pt.walk(1536).present);
    EXPECT_EQ(pt.mappedHuge(), 1u);
}

TEST(VanillaPt, FourKOverridesHugeOnWalk)
{
    // When both exist, the 4 KiB mapping wins (deeper walk first).
    VanillaPageTable pt;
    pt.mapHuge(0, 1000);
    pt.map(3, 77);
    EXPECT_EQ(pt.walk(3).pfn, 77u);
    EXPECT_EQ(pt.walk(4).pfn, 1004u);
}

TEST(VanillaPt, RemapUpdatesPfn)
{
    VanillaPageTable pt;
    pt.map(9, 1);
    pt.map(9, 2);
    EXPECT_EQ(pt.walk(9).pfn, 2u);
    EXPECT_EQ(pt.mapped4k(), 1u);
}

TEST(MosaicPt, SetWalkClear)
{
    MosaicPageTable pt(4, 0x7F);
    EXPECT_FALSE(pt.walk(10).present);
    pt.setCpfn(10, 33);
    const auto walk = pt.walk(10);
    EXPECT_TRUE(walk.present);
    EXPECT_EQ(walk.cpfn, 33);
    EXPECT_EQ(pt.mappedPages(), 1u);
    pt.clearCpfn(10);
    EXPECT_FALSE(pt.walk(10).present);
    EXPECT_EQ(pt.mappedPages(), 0u);
}

TEST(MosaicPt, WalkReturnsWholeToc)
{
    MosaicPageTable pt(4, 0x7F);
    pt.setCpfn(8, 1);
    pt.setCpfn(9, 2);
    pt.setCpfn(11, 4);
    const auto walk = pt.walk(10); // unmapped sub-page, same ToC
    EXPECT_FALSE(walk.present);
    ASSERT_EQ(walk.toc.size(), 4u);
    EXPECT_EQ(walk.toc[0], 1);
    EXPECT_EQ(walk.toc[1], 2);
    EXPECT_EQ(walk.toc[2], 0x7F);
    EXPECT_EQ(walk.toc[3], 4);
}

TEST(MosaicPt, TocsAreIndependent)
{
    MosaicPageTable pt(4, 0x7F);
    pt.setCpfn(0, 1);
    pt.setCpfn(4, 2);
    EXPECT_EQ(pt.walk(0).cpfn, 1);
    EXPECT_EQ(pt.walk(4).cpfn, 2);
    EXPECT_FALSE(pt.walk(1).present);
}

TEST(MosaicPt, MvpnOffsetForArities)
{
    MosaicPageTable pt64(64, 0x7F);
    EXPECT_EQ(pt64.mvpnOf(64), 1u);
    EXPECT_EQ(pt64.offsetOf(64 + 63), 63u);
    MosaicPageTable pt1(1, 0x7F);
    EXPECT_EQ(pt1.mvpnOf(7), 7u);
    EXPECT_EQ(pt1.offsetOf(7), 0u);
}

TEST(MosaicPt, WalkCountsNodeVisits)
{
    MosaicPageTable pt(64, 0x7F);
    pt.setCpfn(0, 1);
    // 36 - 6 = 30 bits of MVPN -> ceil(30/9) = 4 levels.
    EXPECT_EQ(pt.walk(0).memRefs, 4u);
}

TEST(MosaicPt, RemapCounting)
{
    MosaicPageTable pt(4, 0x7F);
    pt.setCpfn(3, 5);
    pt.setCpfn(3, 6); // remap: count stays 1
    EXPECT_EQ(pt.mappedPages(), 1u);
    EXPECT_EQ(pt.walk(3).cpfn, 6);
}

TEST(MosaicPt, OneRecordYieldsEveryArityToc)
{
    // TranslationSim keeps one arity-64 table per address space and
    // slices every arity's ToC out of its leaves (tocAs). Under random
    // map/remap/unmap sequences that slice must equal what a
    // dedicated MosaicPageTable(arity) walk returns. A table walk
    // without a leaf returns an empty ToC; it means "all unmapped".
    constexpr Cpfn unmapped = 0x7F;
    constexpr unsigned arities[] = {1, 2, 4, 8, 16, 32, 64};
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(seed + 101);
        MosaicPageTable record(maxArity, unmapped);
        std::vector<MosaicPageTable> tables;
        for (const unsigned arity : arities)
            tables.emplace_back(arity, unmapped);

        const auto codes = [&](std::span<const Cpfn> toc,
                               unsigned arity) {
            std::vector<Cpfn> out(arity, unmapped);
            if (!toc.empty())
                out.assign(toc.begin(), toc.end());
            return out;
        };

        // A few 64-page regions, so ToCs are dense enough to matter.
        const auto pickVpn = [&] {
            return Vpn{rng.below(6)} * 4096 + rng.below(160);
        };
        for (unsigned op = 0; op < 3000; ++op) {
            const Vpn vpn = pickVpn();
            if (rng.chance(0.7)) {
                const auto cpfn = static_cast<Cpfn>(rng.below(0x7F));
                record.setCpfn(vpn, cpfn);
                for (MosaicPageTable &t : tables)
                    t.setCpfn(vpn, cpfn);
            } else {
                record.clearCpfn(vpn);
                for (MosaicPageTable &t : tables)
                    t.clearCpfn(vpn);
            }

            const Vpn probe = pickVpn();
            const MosaicWalkResult whole = record.walk(probe);
            for (std::size_t a = 0; a < std::size(arities); ++a) {
                const unsigned arity = arities[a];
                const MosaicWalkResult ref = tables[a].walk(probe);
                const std::vector<Cpfn> want = codes(ref.toc, arity);
                const std::vector<Cpfn> got = codes(
                    whole.toc.empty()
                        ? whole.toc
                        : record.tocAs(whole.toc, probe, arity),
                    arity);
                ASSERT_EQ(got, want) << "seed " << seed << " op " << op
                                     << " vpn " << probe << " arity "
                                     << arity;
                ASSERT_EQ(whole.cpfn, ref.cpfn);
                ASSERT_EQ(whole.present, ref.present);
            }
        }
        EXPECT_EQ(record.mappedPages(), tables.front().mappedPages());
    }
}

using MosaicPtDeathTest = ::testing::Test;

TEST(MosaicPtDeathTest, BadArityPanics)
{
    EXPECT_DEATH(MosaicPageTable(5, 0x7F), "power of two");
}

} // namespace
} // namespace mosaic
