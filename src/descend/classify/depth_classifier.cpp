#include "descend/classify/depth_classifier.h"

#include "descend/classify/structural_classifier.h"
#include "descend/util/bits.h"

namespace descend::classify {

DepthMasks depth_masks(const simd::Kernels& kernels, const std::uint8_t* block,
                       BracketKind kind) noexcept
{
    DepthMasks masks;
    if (kind == BracketKind::kObject) {
        masks.openers = kernels.eq_mask(block, kOpenBrace);
        masks.closers = kernels.eq_mask(block, kCloseBrace);
    } else {
        masks.openers = kernels.eq_mask(block, kOpenBracket);
        masks.closers = kernels.eq_mask(block, kCloseBracket);
    }
    return masks;
}

int walk_to_depth_zero(DepthMasks masks, int& relative_depth) noexcept
{
    std::uint64_t consumed_openers = 0;
    for (bits::BitIter it(masks.closers); !it.done(); it.advance()) {
        int index = it.index();
        std::uint64_t before = bits::mask_below(index);
        relative_depth +=
            bits::popcount(masks.openers & before & ~consumed_openers);
        consumed_openers |= before;
        --relative_depth;
        if (relative_depth == 0) {
            return index;
        }
    }
    relative_depth += bits::popcount(masks.openers & ~consumed_openers);
    return -1;
}

}  // namespace descend::classify
