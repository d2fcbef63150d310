/**
 * @file
 * Glue between match reporting and projection: the mode taxonomy shared
 * by the CLI and serve daemon, and the MatchSink adapter that extends
 * each reported offset into a span and feeds a ProjectionSink.
 *
 * Engines keep reporting offsets — projection is a layer on top, so
 * every engine (single, fused, streaming) gains it without
 * touching the automaton hot loop. The adapter extends spans *as matches
 * arrive*, which keeps the block-mask ring warm across consecutive
 * matches of the same region; batch extension after the run (project_all)
 * is equivalent and is what the multi-query collectors use.
 */
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "descend/engine/api.h"
#include "descend/project/sink.h"
#include "descend/project/span.h"

namespace descend::project {

/** What --project materializes. kNone means projection is off (the
 *  engine's offset/count reporting is used directly). */
enum class ProjectionMode : std::uint8_t {
    kNone,
    kCount,   ///< spans extended, only totals reported (overhead baseline)
    kSlices,  ///< zero-copy raw slices of the input
    kNdjson,  ///< compact re-serialization, one value per line
};

/** Parses a --project= argument; false on an unknown mode. */
inline bool parse_projection_mode(std::string_view text,
                                  ProjectionMode& out) noexcept
{
    if (text == "count") {
        out = ProjectionMode::kCount;
    } else if (text == "slices") {
        out = ProjectionMode::kSlices;
    } else if (text == "ndjson") {
        out = ProjectionMode::kNdjson;
    } else {
        return false;
    }
    return true;
}

constexpr const char* projection_mode_name(ProjectionMode mode) noexcept
{
    switch (mode) {
        case ProjectionMode::kNone: return "none";
        case ProjectionMode::kCount: return "count";
        case ProjectionMode::kSlices: return "slices";
        case ProjectionMode::kNdjson: return "ndjson";
    }
    return "unknown";
}

/** MatchSink adapter: offset → span → ProjectionSink, per match. */
class ProjectingMatchSink final : public MatchSink {
public:
    ProjectingMatchSink(SpanExtender& extender, ProjectionSink& sink) noexcept
        : extender_(&extender), sink_(&sink)
    {
    }

    void on_match(std::size_t offset) override
    {
        const ValueSpan span = extender_->extend(offset);
        sink_->on_value(span, extender_->slice(span));
    }

private:
    SpanExtender* extender_;
    ProjectionSink* sink_;
};

/** Batch extension: projects an already-collected offset list (the
 *  multi-query and serve paths, whose sinks collect offsets first). */
inline void project_all(SpanExtender& extender,
                        const std::vector<std::size_t>& offsets,
                        ProjectionSink& sink)
{
    for (std::size_t offset : offsets) {
        const ValueSpan span = extender.extend(offset);
        sink.on_value(span, extender.slice(span));
    }
}

}  // namespace descend::project
