#include "layers.h"

#include "bench.h"
#include "descend/automaton/compiled.h"
#include "descend/engine/label_search.h"
#include "descend/query/query.h"
#include "descend/simd/dispatch.h"

namespace perfbench {

namespace {

using descend::obs::Counter;

/** Runs @p body until @p min_seconds elapsed (at least once); returns the
 *  elapsed seconds and the number of rounds through @p rounds. */
template <typename Body>
double timed_rounds(double min_seconds, std::size_t& rounds, Body body)
{
    rounds = 0;
    Clock::time_point start = Clock::now();
    double elapsed = 0;
    do {
        body();
        ++rounds;
        elapsed = seconds_since(start);
    } while (elapsed < min_seconds);
    return elapsed;
}

std::size_t blocks_of(std::size_t bytes)
{
    return (bytes + descend::simd::kBlockSize - 1) / descend::simd::kBlockSize;
}

}  // namespace

double probe_classify_ns_per_block(const std::vector<descend::PaddedView>& inputs,
                                   double min_seconds)
{
    const descend::simd::Kernels& kernels =
        descend::simd::kernels_for(descend::simd::default_level());
    descend::simd::BlockMasks masks[descend::simd::kBatchBlocks];
    std::size_t blocks_per_round = 0;
    for (const descend::PaddedView& input : inputs) {
        std::size_t batches = (input.size() + descend::simd::kBatchSize - 1) /
                              descend::simd::kBatchSize;
        blocks_per_round += batches * descend::simd::kBatchBlocks;
    }
    volatile std::uint64_t sink = 0;
    std::size_t rounds = 0;
    double elapsed = timed_rounds(min_seconds, rounds, [&] {
        std::uint64_t fold = 0;
        for (const descend::PaddedView& input : inputs) {
            descend::simd::BatchCarry carry;
            for (std::size_t offset = 0; offset < input.size();
                 offset += descend::simd::kBatchSize) {
                kernels.classify_batch(input.data() + offset, carry, masks);
                fold ^= masks[0].commas ^ masks[descend::simd::kBatchBlocks - 1].colons;
            }
        }
        sink = sink ^ fold;
    });
    return elapsed * 1e9 / static_cast<double>(rounds * blocks_per_round);
}

double probe_label_search_ns_per_block(descend::PaddedView input,
                                       const std::string& label,
                                       double min_seconds)
{
    const descend::simd::Kernels& kernels =
        descend::simd::kernels_for(descend::simd::default_level());
    volatile std::size_t sink = 0;
    std::size_t rounds = 0;
    double elapsed = timed_rounds(min_seconds, rounds, [&] {
        descend::LabelSearch search(input, kernels, label);
        std::size_t hits = 0;
        while (search.next()) {
            ++hits;
        }
        sink = sink + hits;
    });
    return elapsed * 1e9 / static_cast<double>(rounds * blocks_of(input.size()));
}

CompileProbe probe_compile(const std::vector<std::string>& queries, int repeats)
{
    CompileProbe probe;
    if (queries.empty()) {
        return probe;
    }
    for (const std::string& text : queries) {
        std::vector<double> parse_us;
        std::vector<double> compile_us;
        for (int r = 0; r < repeats; ++r) {
            Clock::time_point t0 = Clock::now();
            descend::query::Query parsed = descend::query::Query::parse(text);
            Clock::time_point t1 = Clock::now();
            descend::automaton::CompiledQuery compiled =
                descend::automaton::CompiledQuery::compile(parsed);
            Clock::time_point t2 = Clock::now();
            parse_us.push_back(seconds_between(t0, t1) * 1e6);
            compile_us.push_back(seconds_between(t1, t2) * 1e6);
            if (r == 0) {
                probe.dfa_states += compiled.dfa().num_states();
            }
        }
        probe.parse_us += median(parse_us);
        probe.compile_us += median(compile_us);
    }
    probe.parse_us /= static_cast<double>(queries.size());
    probe.compile_us /= static_cast<double>(queries.size());
    return probe;
}

BlockShares block_shares(const descend::obs::Counters& counters)
{
    BlockShares shares;
    double structural = static_cast<double>(counters.get(Counter::kBlocksStructural));
    double child = static_cast<double>(counters.get(Counter::kBlocksChildSkipped));
    double sibling = static_cast<double>(counters.get(Counter::kBlocksSiblingSkipped));
    double within = static_cast<double>(counters.get(Counter::kBlocksWithinSkipped));
    double head = static_cast<double>(counters.get(Counter::kBlocksHeadSkip));
    double tail = static_cast<double>(counters.get(Counter::kBlocksTail));
    shares.total_blocks = structural + child + sibling + within + head + tail;
    if (shares.total_blocks > 0) {
        shares.structural = structural / shares.total_blocks;
        shares.child = child / shares.total_blocks;
        shares.sibling = sibling / shares.total_blocks;
        shares.within = within / shares.total_blocks;
        shares.head = head / shares.total_blocks;
    }
    return shares;
}

}  // namespace perfbench
