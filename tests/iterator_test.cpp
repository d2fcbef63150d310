/**
 * @file
 * Direct tests of the structural iterator (the multi-classifier pipeline's
 * stream abstraction): event sequences, peeking, toggling mid-block,
 * label backtracking, both skip flavours, stop/resume, and padded-string
 * plumbing — at both SIMD levels.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "descend/engine/extract.h"
#include "descend/engine/structural_iterator.h"
#include "descend/engine/validation.h"

namespace descend {
namespace {

using Kind = StructuralIterator::Kind;

std::string drain(StructuralIterator& iter)
{
    std::string events;
    while (true) {
        auto event = iter.next();
        if (event.kind == Kind::kNone) {
            return events;
        }
        events.push_back(static_cast<char>(event.byte));
    }
}

class IteratorTest : public ::testing::TestWithParam<simd::Level> {
protected:
    const simd::Kernels& kernels() const { return simd::kernels_for(GetParam()); }
};

TEST_P(IteratorTest, DefaultModeSkipsLeaves)
{
    PaddedString doc(R"({"a": [1, 2], "b": {"c": 3}})");
    StructuralIterator iter(doc, kernels());
    // Only braces/brackets by default: leaves are invisible.
    EXPECT_EQ(drain(iter), "{[]{}}");
}

TEST_P(IteratorTest, TogglesExtendTheEventSet)
{
    PaddedString doc(R"({"a": [1, 2]})");
    StructuralIterator iter(doc, kernels());
    iter.set_colons(true);
    iter.set_commas(true);
    EXPECT_EQ(drain(iter), "{:[,]}");
}

TEST_P(IteratorTest, InStringStructuralsAreInvisible)
{
    PaddedString doc(R"({"k": "a {[,:]} b", "x": []})");
    StructuralIterator iter(doc, kernels());
    iter.set_commas(true);
    iter.set_colons(true);
    EXPECT_EQ(drain(iter), "{:,:[]}");
}

TEST_P(IteratorTest, PeekDoesNotConsume)
{
    PaddedString doc(R"([{}])");
    StructuralIterator iter(doc, kernels());
    EXPECT_EQ(iter.peek().byte, '[');
    EXPECT_EQ(iter.peek().byte, '[');
    EXPECT_EQ(iter.next().byte, '[');
    EXPECT_EQ(iter.peek().byte, '{');
    EXPECT_EQ(iter.next().byte, '{');
}

TEST_P(IteratorTest, PeekAcrossBlockBoundary)
{
    std::string text = std::string("[").append(100, ' ').append("{}]");
    PaddedString doc(text);
    StructuralIterator iter(doc, kernels());
    EXPECT_EQ(iter.next().byte, '[');
    EXPECT_EQ(iter.peek().byte, '{');
    EXPECT_EQ(iter.next().pos, 101u);
}

TEST_P(IteratorTest, EventPositionsAreAbsolute)
{
    PaddedString doc(R"(  {"a": 1})");
    StructuralIterator iter(doc, kernels());
    iter.set_colons(true);
    EXPECT_EQ(iter.next().pos, 2u);
    EXPECT_EQ(iter.next().pos, 6u);
    EXPECT_EQ(iter.next().pos, 9u);
}

TEST_P(IteratorTest, LabelBacktracking)
{
    std::string text = R"({"alpha": {"beta" : [ {"x":1} ]}})";
    PaddedString doc(text);
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');  // root: no label
    EXPECT_FALSE(iter.label_before(0).has_value());
    auto open_alpha = iter.next();
    ASSERT_EQ(open_alpha.byte, '{');
    EXPECT_EQ(iter.label_before(open_alpha.pos), "alpha");
    auto open_beta = iter.next();
    ASSERT_EQ(open_beta.byte, '[');
    EXPECT_EQ(iter.label_before(open_beta.pos), "beta");
    auto open_x = iter.next();
    ASSERT_EQ(open_x.byte, '{');
    // Array entry: artificial label.
    EXPECT_FALSE(iter.label_before(open_x.pos).has_value());
}

TEST_P(IteratorTest, LabelBacktrackingWithEscapes)
{
    std::string text = R"({"we \"said\"": {}})";
    PaddedString doc(text);
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');
    auto open = iter.next();
    EXPECT_EQ(iter.label_before(open.pos), R"(we \"said\")");
}

TEST_P(IteratorTest, SkipElementConsumesWholeSubtree)
{
    PaddedString doc(R"({"a": {"deep": [{}, [], "}}"]}, "b": 1})");
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');   // root
    auto open_a = iter.next();
    ASSERT_EQ(open_a.byte, '{');        // value of a
    iter.skip_element(open_a.byte);
    // Next event is the root's closing brace.
    auto next = iter.next();
    EXPECT_EQ(next.byte, '}');
    EXPECT_EQ(next.pos, doc.size() - 1);
}

TEST_P(IteratorTest, SkipToParentCloseLeavesCloserPending)
{
    PaddedString doc(R"({"a": 1, "b": {"c": [2]}, "d": 3})");
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');
    iter.skip_to_parent_close(/*parent_is_object=*/true);
    auto closer = iter.next();
    EXPECT_EQ(closer.kind, Kind::kClosing);
    EXPECT_EQ(closer.pos, doc.size() - 1);
    EXPECT_EQ(iter.next().kind, Kind::kNone);
}

TEST_P(IteratorTest, SkipsWorkAcrossManyBlocks)
{
    std::string text = R"({"skip": [)";
    for (int i = 0; i < 100; ++i) {
        text += R"({"filler": "some padding text here"},)";
    }
    text += R"(0], "target": 7})";
    PaddedString doc(text);
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');
    auto open = iter.next();
    ASSERT_EQ(open.byte, '[');
    iter.skip_element(open.byte);
    iter.set_colons(true);
    auto colon = iter.next();
    EXPECT_EQ(colon.kind, Kind::kColon);
    EXPECT_EQ(iter.label_before(colon.pos), "target");
}

TEST_P(IteratorTest, SkipFromMidBlockFloorIgnoresBracketsBeforeIt)
{
    // The skipped array opens at byte 20 behind twenty openers of its own
    // kind, and the rest of its first block holds openers and in-string
    // closers only, so the block-skip test consumes that block whole: its
    // counts must come from its masks clipped to the floor, not from the
    // batch's whole-block counts. The body (bracket noise inside strings)
    // then runs over several whole blocks, which use the batch counts.
    std::string head = std::string(20, '[') + R"([{"s": "]]]]", "t": [)";
    head += std::string(simd::kBlockSize - head.size(), ' ');
    std::string body;
    for (int i = 0; i < 40; ++i) {
        body += R"([[], "]]]}", {"k": [0]}],)";
    }
    body += "0]}";
    const std::string text = head + body + "]" + std::string(20, ']');
    PaddedString doc(text);
    const std::size_t element_end = 20 + extract_value(doc, 20).size();
    ASSERT_EQ(element_end, head.size() + body.size() + 1);
    for (bool to_parent : {false, true}) {
        StructuralIterator iter(doc, kernels());
        for (int i = 0; i < 20; ++i) {
            ASSERT_EQ(iter.next().byte, '[');
        }
        if (to_parent) {
            // The parent's closer is the first of the trailing ']'s.
            iter.skip_to_parent_close(/*parent_is_object=*/false);
            auto closer = iter.next();
            EXPECT_EQ(closer.pos, element_end) << "skip_to_parent_close";
        } else {
            auto open = iter.next();
            ASSERT_EQ(open.pos, 20u);
            iter.skip_element(open.byte);
            auto closer = iter.next();
            EXPECT_EQ(closer.pos, element_end) << "skip_element";
        }
        EXPECT_TRUE(iter.status().ok());
    }
}

TEST_P(IteratorTest, SliceEndingMidBlockKeepsTailBytesOutOfSkipsAndBalances)
{
    // A slice whose last block is partial, inside a buffer whose next
    // bytes would close the open element and balance the slice: the
    // skip must run out and the validator must see the imbalance.
    std::string open_text =
        std::string("[").append(150, ' ').append("[[1, [2, [3");
    PaddedString buffer(open_text + "]]]]");
    PaddedView slice = PaddedView(buffer).subview(0, open_text.size());
    ASSERT_NE(slice.size() % simd::kBlockSize, 0u);
    {
        StructuralValidator validator;
        StructuralIterator iter(slice, kernels(), &validator);
        ASSERT_EQ(iter.next().byte, '[');
        auto open = iter.next();
        ASSERT_EQ(open.byte, '[');
        iter.skip_element(open.byte);
        EXPECT_EQ(iter.status(),
                  (EngineStatus{StatusCode::kUnbalancedStructure, slice.size()}));
        EXPECT_EQ(validator.verdict(slice.size()).code,
                  StatusCode::kUnbalancedStructure);
    }

    // The balanced prefix of the same buffer: clean, and the tail's
    // closers never show up as events.
    std::string closed_text =
        std::string("[").append(150, ' ').append("[[1], [2]]]");
    PaddedString closed_buffer(closed_text + "]]]]");
    PaddedView closed = PaddedView(closed_buffer).subview(0, closed_text.size());
    StructuralValidator validator;
    StructuralIterator iter(closed, kernels(), &validator);
    ASSERT_EQ(iter.next().byte, '[');
    auto open = iter.next();
    iter.skip_element(open.byte);
    auto closer = iter.next();
    EXPECT_EQ(closer.pos, closed.size() - 1);
    EXPECT_EQ(iter.next().kind, Kind::kNone);
    EXPECT_TRUE(iter.status().ok());
    EXPECT_TRUE(validator.verdict(closed.size()).ok());
}

TEST_P(IteratorTest, SkipDepthLimitAtBlockBoundary)
{
    // The opener that exceeds the skip's depth budget sits at bit 63 of a
    // block, then at bit 0 of the next: either way the limit is reported
    // at that opener's offset.
    for (std::size_t opener_at : {std::size_t{127}, std::size_t{128}}) {
        const std::size_t budget = 5;
        // The skipped element opens at byte 0 and nests budget levels; the
        // last level's opener is placed at @p opener_at.
        std::string text = "[";
        for (std::size_t level = 1; level < budget; ++level) {
            text += "[";
        }
        text += std::string(opener_at - text.size(), ' ');
        text += "[";
        text += std::string(budget + 1, ']');
        PaddedString doc(text);
        StructuralIterator iter(doc, kernels(), nullptr, budget);
        auto open = iter.next();
        ASSERT_EQ(open.pos, 0u);
        iter.skip_element(open.byte);
        EXPECT_EQ(iter.status(), (EngineStatus{StatusCode::kDepthLimit, opener_at}))
            << "opener at " << opener_at;
    }
}

TEST_P(IteratorTest, StopResumeRoundTrip)
{
    PaddedString doc(R"({"a": [1, {"b": 2}], "c": 3})");
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');
    ASSERT_EQ(iter.next().byte, '[');
    ResumePoint point = iter.resume_point();

    // Drain to the end, then resume: the event stream must replay.
    std::string rest_once = drain(iter);
    iter.resume(point);
    std::string rest_twice = drain(iter);
    EXPECT_EQ(rest_once, rest_twice);
    EXPECT_EQ(rest_once, "{}]}");
}

/** Balanced filler of exactly @p bytes, padded with spaces: array
 *  entries that nest arrays (blocks an array skip must walk closer by
 *  closer) or, with @p objects_only, only objects (whole blocks an array
 *  skip settles from the batch counts). Both put brackets in strings. */
std::string filler(std::size_t bytes, bool objects_only = false)
{
    const std::string entry = objects_only ? R"({"k": "]}", "v": {"w": {}}}, )"
                                           : R"({"k": "]}", "v": [1, [2, {}]]}, )";
    std::string text;
    while (text.size() + entry.size() <= bytes) {
        text += entry;
    }
    return text.append(bytes - text.size(), ' ');
}

TEST_P(IteratorTest, SkipsWhoseCloserEndsABatchOrOpensOne)
{
    // The skipped element's closer at bit 0 of block 0 and at bits 0 and
    // 63 of block 7, each in a later batch than the one the skip starts in.
    const std::size_t batch2 = 2 * simd::kBatchSize;
    const std::size_t block7 = batch2 + 7 * simd::kBlockSize;
    const std::size_t closers[] = {batch2, block7, block7 + 63};
    // Each closer position with both fillers.
    for (std::size_t variant = 0; variant < 6; ++variant) {
        const std::size_t closer_at = closers[variant / 2];
        const bool objects_only = variant % 2 != 0;
        // [[1, <filler>] ] with the inner closer at closer_at.
        std::string text = "[[1, ";
        text += filler(closer_at - text.size(), objects_only);
        text += "]]";
        ASSERT_EQ(text[closer_at], ']');
        PaddedString doc(text);
        {
            StructuralValidator validator;
            StructuralIterator iter(doc, kernels(), &validator);
            ASSERT_EQ(iter.next().pos, 0u);
            auto open = iter.next();
            ASSERT_EQ(open.pos, 1u);
            iter.skip_element(open.byte);
            EXPECT_EQ(iter.position(), closer_at + 1) << "closer at " << closer_at;
            auto outer = iter.next();
            EXPECT_EQ(outer.pos, closer_at + 1) << "closer at " << closer_at;
            EXPECT_EQ(iter.next().kind, Kind::kNone);
            EXPECT_TRUE(iter.status().ok());
            EXPECT_TRUE(validator.verdict(doc.size()).ok());
        }
        StructuralIterator iter(doc, kernels());
        ASSERT_EQ(iter.next().pos, 0u);
        ASSERT_EQ(iter.next().pos, 1u);
        iter.skip_to_parent_close(/*parent_is_object=*/false);
        auto closer = iter.next();
        EXPECT_EQ(closer.pos, closer_at) << "closer at " << closer_at;
        EXPECT_EQ(closer.kind, Kind::kClosing);
        EXPECT_TRUE(iter.status().ok());
    }
}

TEST_P(IteratorTest, SkipsEndingAtTheLastByteOfASlice)
{
    // A slice whose final partial block ends with the skipped element's
    // closer, inside a buffer that continues with more closers: both skip
    // flavours stop exactly at the slice's last byte and nothing past it
    // leaks into the events or the balances.
    // Two slice sizes, each with both fillers.
    for (int variant = 0; variant < 4; ++variant) {
        const std::size_t size = variant < 2 ? 1000 : 1025;
        const bool objects_only = variant % 2 != 0;
        std::string text = "[[1], ";
        text += filler(size - 1 - text.size(), objects_only);
        text += "]";
        ASSERT_EQ(text.size(), size);
        ASSERT_NE(size % simd::kBlockSize, 0u);
        PaddedString buffer(text + "]]}");
        PaddedView slice = PaddedView(buffer).subview(0, size);

        StructuralValidator validator;
        StructuralIterator iter(slice, kernels(), &validator);
        auto open = iter.next();
        iter.skip_element(open.byte);
        EXPECT_EQ(iter.position(), size);
        EXPECT_EQ(iter.next().kind, Kind::kNone);
        EXPECT_TRUE(iter.status().ok()) << to_string(iter.status());
        EXPECT_TRUE(validator.verdict(size).ok());

        StructuralIterator sibling(slice, kernels());
        ASSERT_EQ(sibling.next().pos, 0u);
        ASSERT_EQ(sibling.next().pos, 1u);
        ASSERT_EQ(sibling.next().pos, 3u);  // the first entry closed
        sibling.skip_to_parent_close(/*parent_is_object=*/false);
        auto closer = sibling.next();
        EXPECT_EQ(closer.pos, size - 1);
        EXPECT_EQ(sibling.next().kind, Kind::kNone);
        EXPECT_TRUE(sibling.status().ok());
    }
}

TEST_P(IteratorTest, ResumePointAfterALongSkipResumesThere)
{
    // A skip across three batches ends mid-block; its resume point
    // restarts a second iterator at exactly that position.
    std::string text = "[[";
    text += filler(3 * simd::kBatchSize + 17 - text.size());
    text += R"(], {"x": [1]}, 2])";
    PaddedString doc(text);
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().pos, 0u);
    auto open = iter.next();
    iter.skip_element(open.byte);
    const std::size_t after = 3 * simd::kBatchSize + 18;
    EXPECT_EQ(iter.position(), after);
    ResumePoint point = iter.resume_point();
    EXPECT_EQ(point.block_start + static_cast<std::size_t>(point.floor), after);

    StructuralIterator resumed(doc, kernels());
    resumed.resume(point);
    EXPECT_EQ(resumed.position(), after);
    EXPECT_EQ(drain(resumed), "{[]}]");
    EXPECT_EQ(drain(iter), "{[]}]");
}

TEST_P(IteratorTest, FirstNonWs)
{
    PaddedString doc("  \t\n7 ");
    StructuralIterator iter(doc, kernels());
    EXPECT_EQ(iter.first_non_ws(0), 4u);
    EXPECT_EQ(iter.first_non_ws(4), 4u);
    EXPECT_EQ(iter.first_non_ws(5), doc.size());
}

TEST_P(IteratorTest, EmptyInput)
{
    PaddedString doc("");
    StructuralIterator iter(doc, kernels());
    EXPECT_EQ(iter.next().kind, Kind::kNone);
    EXPECT_EQ(iter.peek().kind, Kind::kNone);
}

INSTANTIATE_TEST_SUITE_P(Levels, IteratorTest,
                         ::testing::Values(simd::Level::avx512, simd::Level::avx2,
                                           simd::Level::scalar),
                         [](const ::testing::TestParamInfo<simd::Level>& info) {
                             return simd::level_name(info.param);
                         });

TEST(PaddedString, CopiesAndPads)
{
    PaddedString doc("abc");
    EXPECT_EQ(doc.size(), 3u);
    EXPECT_EQ(doc.view(), "abc");
    // Padding must be whitespace for at least kPadding bytes.
    for (std::size_t i = 0; i < PaddedString::kPadding; ++i) {
        EXPECT_EQ(doc.data()[3 + i], ' ');
    }
}

TEST(PaddedString, MoveTransfersOwnership)
{
    PaddedString source("hello");
    PaddedString moved(std::move(source));
    EXPECT_EQ(moved.view(), "hello");
    EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
    PaddedString assigned;
    assigned = std::move(moved);
    EXPECT_EQ(assigned.view(), "hello");
}

TEST(Extract, DelimitsEveryValueKind)
{
    PaddedString doc(R"({"o": {"x": [1, "]"]}, "a": [ {"y":2} ], "s": "a,b",
                        "n": -1.5e3, "t": true, "z": null})");
    auto value_at = [&](std::size_t offset) {
        return std::string(extract_value(doc, offset));
    };
    EXPECT_EQ(value_at(doc.view().find("{\"x\"")), R"({"x": [1, "]"]})");
    EXPECT_EQ(value_at(doc.view().find("[ {")), R"([ {"y":2} ])");
    EXPECT_EQ(value_at(doc.view().find("\"a,b\"")), R"("a,b")");
    EXPECT_EQ(value_at(doc.view().find("-1.5e3")), "-1.5e3");
    EXPECT_EQ(value_at(doc.view().find("true")), "true");
    EXPECT_EQ(value_at(doc.view().find("null")), "null");
}

}  // namespace
}  // namespace descend
