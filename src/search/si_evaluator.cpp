#include "search/si_evaluator.hpp"

#include <algorithm>
#include <bit>

namespace sisd::search {

SiLocationEvaluator::SiLocationEvaluator(const model::BackgroundModel& model,
                                         const linalg::Matrix& targets,
                                         si::DescriptionLengthParams dl)
    : model_(&model), targets_(&targets), dl_(dl) {
  if (targets.cols() == 1) {
    neg_targets_.resize(targets.rows());
    for (size_t r = 0; r < targets.rows(); ++r) {
      neg_targets_[r] = -targets(r, 0);
    }
  }
  // One context exists from the start so ScoreSubgroup works without a
  // search having run. Context construction warms the model's per-group
  // Cholesky caches, making later concurrent reads safe.
  contexts_.emplace_back(*model_, targets_);
  if (UsesConditionRows()) scratch_.push_back(MakeParentScratch());
}

SiLocationEvaluator::ParentScratch SiLocationEvaluator::MakeParentScratch()
    const {
  const size_t n = targets_->rows();
  const size_t groups = model_->num_groups();
  ParentScratch scratch;
  scratch.slot_rows.resize(n);
  if (groups > 1) {
    scratch.group_rows.resize(n);
    scratch.group_begin.resize(groups + 1);
    scratch.group_counts.resize(groups * kernels::kTileWidth);
  }
  return scratch;
}

void SiLocationEvaluator::Prepare(size_t num_workers) {
  while (contexts_.size() < num_workers) {
    contexts_.emplace_back(*model_, targets_);
  }
  while (UsesConditionRows() && scratch_.size() < num_workers) {
    scratch_.push_back(MakeParentScratch());
  }
}

void SiLocationEvaluator::ScoreChunk(const CandidateBatch& batch,
                                     size_t begin, size_t end, size_t worker,
                                     double* scores) {
  SISD_DCHECK(worker < contexts_.size());
  if (UsesConditionRows()) {
    SISD_CHECK(batch.rows != nullptr);
    for (size_t i = begin; i < end;) {
      size_t j = i + 1;
      while (j < end && batch.items[j].parent == batch.items[i].parent) ++j;
      ScoreParentRun(batch, i, j, worker, scores);
      i = j;
    }
    num_batch_scored_.fetch_add(end - begin, std::memory_order_relaxed);
    return;
  }
  si::EvaluationContext& context = contexts_[worker];
  linalg::Vector& mean = *context.scratch_mean();
  for (size_t i = begin; i < end; ++i) {
    const CandidateBatch::Item& item = batch.items[i];
    const pattern::Extension& parent = batch.parent_extension(item);
    const pattern::Extension& condition = batch.condition_extension(item);
    context.MaskedSubgroupMeanInto(parent, condition, item.count, &mean);
    scores[i] = context
                    .ScoreLocationMasked(parent, condition, item.count, mean,
                                         batch.depth, dl_)
                    .si;
  }
  num_batch_scored_.fetch_add(end - begin, std::memory_order_relaxed);
}

void SiLocationEvaluator::BucketParentRows(const pattern::Extension& parent,
                                           ParentScratch* scratch) const {
  const std::vector<uint64_t>& blocks = parent.blocks();
  const bool by_group = model_->num_groups() > 1;
  const std::vector<uint32_t>& group_of_row = model_->GroupOfRows();
  uint32_t slot_cursor[kernels::kContractSlots] = {};
  uint32_t* group_begin = scratch->group_begin.data();
  if (by_group) {
    std::fill(scratch->group_begin.begin(), scratch->group_begin.end(), 0u);
  }
  // Pass 1: bucket sizes. A slot's rows are the bits s, s+16, s+32, s+48
  // of every block.
  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    const uint64_t word = blocks[bi];
    if (word == 0) continue;
    for (size_t s = 0; s < kernels::kContractSlots; ++s) {
      slot_cursor[s] += uint32_t(
          std::popcount(word & (0x0001000100010001ull << s)));
    }
    if (!by_group) continue;
    for (uint64_t w = word; w != 0; w &= w - 1) {
      ++group_begin[group_of_row[bi * 64 + size_t(std::countr_zero(w))] + 1];
    }
  }
  // Prefix sums: bucket starts, which become the fill cursors.
  scratch->slot_begin[0] = 0;
  for (size_t s = 0; s < kernels::kContractSlots; ++s) {
    const uint32_t size = slot_cursor[s];
    slot_cursor[s] = scratch->slot_begin[s];
    scratch->slot_begin[s + 1] = scratch->slot_begin[s] + size;
  }
  const size_t groups = scratch->group_begin.size();
  for (size_t g = 1; by_group && g < groups; ++g) {
    group_begin[g] += group_begin[g - 1];
  }
  // Pass 2: fill in ascending row order, so every bucket is ascending. The
  // group fill advances `group_begin[g]` to the end of bucket g; shifting
  // the array right by one afterwards restores the starts.
  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    for (uint64_t w = blocks[bi]; w != 0; w &= w - 1) {
      const size_t bit = size_t(std::countr_zero(w));
      const uint32_t r = uint32_t(bi * 64 + bit);
      scratch->slot_rows[slot_cursor[bit & 15]++] = r;
      if (by_group) scratch->group_rows[group_begin[group_of_row[r]]++] = r;
    }
  }
  for (size_t g = groups; by_group && g-- > 1;) {
    group_begin[g] = group_begin[g - 1];
  }
  if (by_group) group_begin[0] = 0;
}

void SiLocationEvaluator::ScoreParentRun(const CandidateBatch& batch,
                                         size_t begin, size_t end,
                                         size_t worker, double* scores) {
  SISD_DCHECK(worker < scratch_.size());
  si::EvaluationContext& context = contexts_[worker];
  ParentScratch& scratch = scratch_[worker];
  linalg::Vector& mean = *context.scratch_mean();
  const size_t num_groups = model_->num_groups();
  SISD_CHECK(num_groups == 1 || scratch.group_begin.size() == num_groups + 1);
  BucketParentRows(batch.parent_extension(batch.items[begin]), &scratch);
  for (size_t i = begin; i < end;) {
    const size_t t = batch.items[i].condition / kernels::kTileWidth;
    const uint32_t* tile = batch.rows->tile(t);
    kernels::TileSlotSums(neg_targets_.data(), tile,
                          scratch.slot_rows.data(), scratch.slot_begin,
                          scratch.sums);
    if (num_groups > 1) {
      kernels::TileBucketCounts(tile, scratch.group_rows.data(),
                                scratch.group_begin.data(), num_groups,
                                scratch.group_counts.data());
    }
    for (; i < end && batch.items[i].condition / kernels::kTileWidth == t;
         ++i) {
      const CandidateBatch::Item& item = batch.items[i];
      const size_t c = item.condition % kernels::kTileWidth;
      mean[0] = scratch.sums[c] / double(item.count);
      const uint32_t* counts =
          num_groups > 1 ? scratch.group_counts.data() + c : nullptr;
      scores[i] = context
                      .ScoreLocationFromGroupCounts(counts,
                                                    kernels::kTileWidth,
                                                    item.count, mean,
                                                    batch.depth, dl_)
                      .si;
    }
  }
}

si::LocationScore SiLocationEvaluator::ScoreSubgroup(
    const pattern::Extension& extension, const linalg::Vector& empirical_mean,
    size_t num_conditions) {
  return contexts_.front().ScoreLocation(extension, empirical_mean,
                                         num_conditions, dl_);
}

}  // namespace sisd::search
