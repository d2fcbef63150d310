/**
 * @file
 * Tests for the memmem-style label search underlying head-skipping: only
 * genuine member labels are reported — never string values, never
 * occurrences inside strings — across block boundaries.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "descend/engine/label_search.h"
#include "descend/engine/validation.h"

namespace descend {
namespace {

std::vector<std::size_t> find_all(const std::string& document,
                                  const std::string& label,
                                  simd::Level level = simd::Level::avx2)
{
    PaddedString padded(document);
    LabelSearch search(padded, simd::kernels_for(level), label);
    std::vector<std::size_t> quotes;
    while (auto occurrence = search.next()) {
        quotes.push_back(occurrence->quote_pos);
    }
    return quotes;
}

TEST(LabelSearch, FindsMemberLabels)
{
    std::string doc = R"({"a": 1, "b": {"a": 2}})";
    auto hits = find_all(doc, "a");
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0], 1u);
    EXPECT_EQ(hits[1], 15u);
}

TEST(LabelSearch, IgnoresStringValues)
{
    // "a" as a value, and "a": inside a string, must not count.
    EXPECT_TRUE(find_all(R"(["a", "a"])", "a").empty());
    EXPECT_TRUE(find_all(R"({"x": "\"a\": 1"})", "a").empty());
    EXPECT_TRUE(find_all(R"({"x": "a"})", "a").empty());
    EXPECT_EQ(find_all(R"({"x": "\"a\": 1", "a": 2})", "a").size(), 1u);
}

TEST(LabelSearch, RequiresExactLabel)
{
    EXPECT_TRUE(find_all(R"({"ab": 1, "xa": 2})", "a").empty());
    EXPECT_EQ(find_all(R"({"ab": 1})", "ab").size(), 1u);
}

TEST(LabelSearch, ColonMayBeSeparatedByWhitespace)
{
    EXPECT_EQ(find_all("{\"a\"  \n\t: 1}", "a").size(), 1u);
}

TEST(LabelSearch, WorksAcrossBlockBoundaries)
{
    for (std::size_t pad = 50; pad <= 75; ++pad) {
        std::string doc =
            std::string("{").append(pad, ' ').append(R"("needle": 1})");
        auto hits = find_all(doc, "needle");
        ASSERT_EQ(hits.size(), 1u) << "pad " << pad;
        EXPECT_EQ(hits[0], pad + 1) << "pad " << pad;
        // Scalar kernels must agree.
        EXPECT_EQ(find_all(doc, "needle", simd::Level::scalar), hits);
    }
}

TEST(LabelSearch, EscapedLabelForms)
{
    std::string doc = R"({"he said \"hi\"": 1})";
    EXPECT_EQ(find_all(doc, R"(he said \"hi\")").size(), 1u);
    EXPECT_TRUE(find_all(doc, "he said ").empty());
}

TEST(LabelSearch, ResumePointOnBlockBoundary)
{
    // First label in block 0, second label in block 1. Asking for a resume
    // point exactly on the 64-byte boundary used to produce floor == 64 (an
    // out-of-range shift for the receiver's resume mask); it must instead
    // park at the boundary block with floor 0.
    std::string doc = R"({"a": 1,)";
    doc += std::string(64 - doc.size(), ' ');
    doc += R"("a": 2, "a": 3})";
    PaddedString padded(doc);

    LabelSearch search(padded, simd::best_kernels(), "a");
    ASSERT_TRUE(search.next().has_value());
    ResumePoint point = search.resume_point_at(simd::kBlockSize);
    EXPECT_EQ(point.block_start, simd::kBlockSize);
    EXPECT_EQ(point.floor, 0);

    LabelSearch resumed(padded, simd::best_kernels(), "a");
    resumed.resume(point);
    auto hit = resumed.next();
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->quote_pos, 64u);
    ASSERT_TRUE(resumed.next().has_value());
    EXPECT_FALSE(resumed.next().has_value());
}

TEST(LabelSearch, ResumePointPastFinalPartialBlock)
{
    // A position at or past the 64-aligned end of the classified range
    // must yield a spent resume point, not a floor >= 64 over a stale
    // block. (Positions inside the final partial block keep their real
    // floor — candidates past the document end are already clipped.)
    std::string doc = R"({"a": 1, "b": 2})";
    PaddedString padded(doc);
    LabelSearch search(padded, simd::best_kernels(), "a");
    for (std::size_t pos :
         {simd::kBlockSize, simd::kBlockSize + 7, std::size_t{640}}) {
        LabelSearch probe(padded, simd::best_kernels(), "a");
        LabelSearch receiver(padded, simd::best_kernels(), "a");
        ResumePoint point = probe.resume_point_at(pos);
        // The floor is always a legal shift amount, and the point parks at
        // the aligned end — spent for every receiver.
        EXPECT_LT(point.floor, static_cast<int>(simd::kBlockSize))
            << "pos " << pos;
        EXPECT_GE(point.block_start, doc.size()) << "pos " << pos;
        receiver.resume(point);
        EXPECT_FALSE(receiver.next().has_value()) << "pos " << pos;
    }
    // A position inside the final partial block but past the document end
    // is inert: a legal floor, and nothing left to report.
    LabelSearch receiver(padded, simd::best_kernels(), "a");
    receiver.resume(search.resume_point_at(doc.size())); // floor == 16
    EXPECT_FALSE(receiver.next().has_value());
    // The original search still works after being used as a probe.
    EXPECT_TRUE(search.next().has_value());
}

TEST(LabelSearch, ResumeAcceptsFloor64Handoff)
{
    // An iterator that consumed bit 63 legitimately hands over floor == 64
    // ("block spent"); resume must clear the block's candidates and carry on
    // with the next block instead of shifting by 64.
    std::string doc = R"({"a": 1,)";
    doc += std::string(64 - doc.size(), ' ');
    doc += R"("a": 2})";
    PaddedString padded(doc);
    LabelSearch search(padded, simd::best_kernels(), "a");
    ResumePoint spent_first{0, classify::QuoteState{},
                            static_cast<int>(simd::kBlockSize)};
    search.resume(spent_first);
    auto hit = search.next();
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->quote_pos, 64u);
    EXPECT_FALSE(search.next().has_value());
}

TEST(LabelSearch, StopAndResume)
{
    std::string doc = R"({"a": {"x": 1}, "a": {"y": 2}, "a": 3})";
    PaddedString padded(doc);
    LabelSearch search(padded, simd::best_kernels(), "a");
    auto first = search.next();
    ASSERT_TRUE(first.has_value());
    // Hand the pipeline over at the value, then take it back; the next
    // occurrence must still be found.
    StructuralIterator iter(padded, simd::best_kernels());
    iter.resume(search.resume_point_at(first->colon_pos + 2));
    search.resume(iter.resume_point());
    auto second = search.next();
    ASSERT_TRUE(second.has_value());
    EXPECT_GT(second->quote_pos, first->quote_pos);
}

/** @p fill spaces after @p head, then @p tail: a document whose tail
 *  starts at byte head.size() + fill. */
std::string spaced(const std::string& head, std::size_t tail_at,
                   const std::string& tail)
{
    return std::string(head).append(tail_at - head.size(), ' ').append(tail);
}

TEST(LabelSearch, OccurrenceInBlockZeroOfAFreshBatch)
{
    // Blocks 1..15 hold no candidate at all (the walk crosses a whole
    // batch without stopping); the label's quote opens block 16, the
    // first block of the third batch — and block 8, the first of the
    // second, with only seven candidate-free blocks before it.
    for (std::size_t quote_at : {2 * simd::kBatchSize, simd::kBatchSize,
                                 2 * simd::kBatchSize + 1}) {
        std::string doc =
            spaced(R"({"pad": [1, 2)", quote_at - 3, R"(], "needle": 1})");
        ASSERT_EQ(doc.find("\"needle\""), quote_at);
        for (simd::Level level :
             {simd::Level::avx512, simd::Level::avx2, simd::Level::scalar}) {
            EXPECT_EQ(find_all(doc, "needle", level),
                      std::vector<std::size_t>{quote_at})
                << "quote at " << quote_at << ", " << simd::level_name(level);
        }
    }
}

TEST(LabelSearch, CandidateAtBit63OfABatchsLastBlock)
{
    // Bit 63 of block 7 (the last byte of the first batch) opens a string
    // whose first content byte lives in the next batch: the prefilter
    // keeps the bit and verification reads across the refill. A decoy
    // there must be rejected and the walk must go on to bit 63 of block 15,
    // the next batch's last block, where the label sits.
    const std::size_t decoy_at = simd::kBatchSize - 1;
    const std::size_t label_at = 2 * simd::kBatchSize - 1;
    std::string doc = spaced("{", decoy_at, R"("other": 1,)");
    doc = spaced(doc, label_at, R"("needle": 2})");
    ASSERT_EQ(doc.find("\"needle\""), label_at);
    for (simd::Level level :
         {simd::Level::avx512, simd::Level::avx2, simd::Level::scalar}) {
        EXPECT_EQ(find_all(doc, "needle", level),
                  std::vector<std::size_t>{label_at})
            << simd::level_name(level);
        EXPECT_EQ(find_all(doc, "other", level),
                  std::vector<std::size_t>{decoy_at})
            << simd::level_name(level);
    }
}

TEST(LabelSearch, ResumePointAfterALongWalkResumesThere)
{
    // The search walks 20 candidate-free blocks to the first label, whose
    // value starts three blocks further on; the resume point taken there
    // hands the iterator exactly that position, and the iterator's own
    // point hands it back: the second label, three batches further on,
    // is still found.
    const std::size_t first_at = 20 * simd::kBlockSize + 5;
    const std::size_t second_at = first_at + 3 * simd::kBatchSize;
    std::string doc = spaced("{", first_at, R"("a":)");
    doc = spaced(doc, first_at + 3 * simd::kBlockSize, R"({"x": 1},)");
    doc = spaced(doc, second_at, R"("a": 2})");
    PaddedString padded(doc);
    StructuralValidator validator;
    LabelSearch search(padded, simd::best_kernels(), "a", &validator);
    auto first = search.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->quote_pos, first_at);
    const std::size_t value = first_at + 3 * simd::kBlockSize;
    ASSERT_EQ(doc[value], '{');
    ResumePoint point = search.resume_point_at(value);
    EXPECT_EQ(point.block_start + static_cast<std::size_t>(point.floor), value);

    StructuralIterator iter(padded, simd::best_kernels(), &validator);
    iter.resume(point);
    EXPECT_EQ(iter.position(), value);
    auto open = iter.next();
    EXPECT_EQ(open.pos, value);
    iter.skip_element(open.byte);
    EXPECT_EQ(iter.position(), doc.find('}') + 1);
    search.resume(iter.resume_point());
    auto second = search.next();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->quote_pos, second_at);
    EXPECT_FALSE(search.next().has_value());
    EXPECT_TRUE(validator.verdict(doc.size()).ok());
}

}  // namespace
}  // namespace descend
