#include "core/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "nn/kernels.hpp"
#include "util/env.hpp"

namespace ckat::core {

int resolve_train_threads(int requested) {
  if (requested > 0) return std::min(requested, 64);
  const auto cpus = static_cast<long long>(util::affinity_cpu_count());
  return static_cast<int>(
      util::env_int("CKAT_TRAIN_THREADS", std::min(cpus, 64LL), 1, 64));
}

std::size_t resolve_train_batch(std::size_t requested, std::size_t fallback) {
  constexpr long long kMaxBatch = 1LL << 20;
  if (requested > 0) {
    return std::min<std::size_t>(requested, kMaxBatch);
  }
  return static_cast<std::size_t>(
      util::env_int("CKAT_TRAIN_BATCH", static_cast<long long>(fallback), 1,
                    kMaxBatch));
}

namespace {

// Slot widths: big enough that the per-slot tape amortizes, small
// enough that a 4-thread pool balances even modest batches. Fixed
// constants, never derived from the thread count -- the partition is
// part of the deterministic contract.
constexpr std::size_t kCfSlotPairs = 32;
constexpr std::size_t kKgSlotEdges = 64;

// Gathers `ids` rows of `src` into a dense (ids.size(), src.cols())
// block.
nn::Tensor gather_rows(const nn::Tensor& src,
                       std::span<const std::uint32_t> ids) {
  nn::Tensor out(ids.size(), src.cols());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto row = src.row(ids[i]);
    std::copy(row.begin(), row.end(), out.row(i).begin());
  }
  return out;
}

// A slot backward that never saw a live gradient (fully inactive hinge)
// may leave a leaf without a grad tensor; treat that as zeros.
nn::Tensor grad_or_zero(const nn::Tape& tape, nn::Var v, std::size_t rows,
                        std::size_t cols) {
  try {
    return tape.grad(v);
  } catch (const std::logic_error&) {
    return nn::Tensor(rows, cols);
  }
}

}  // namespace

MinibatchTrainer::MinibatchTrainer(int threads)
    : pool_(static_cast<std::size_t>(resolve_train_threads(threads))) {}

float MinibatchTrainer::cf_step(nn::Tape& tape, nn::Var representation,
                                std::span<const std::uint32_t> users,
                                std::span<const std::uint32_t> positives,
                                std::span<const std::uint32_t> negatives,
                                float l2_coefficient, nn::ParamStore& params,
                                nn::AdamOptimizer& optimizer) {
  const std::size_t batch = users.size();
  if (positives.size() != batch || negatives.size() != batch) {
    throw std::invalid_argument("cf_step: id arrays must be parallel");
  }
  if (batch == 0) return 0.0f;

  const nn::Tensor& rep = tape.value(representation);
  const float inv_batch = 1.0f / static_cast<float>(batch);
  const std::size_t n_slots = (batch + kCfSlotPairs - 1) / kCfSlotPairs;

  struct CfSlot {
    double loss = 0.0;
    nn::Tensor gu, gp, gn;  // d loss / d gathered rows
  };
  std::vector<CfSlot> slots(n_slots);

  // One chunk per slot; workers read the shared representation value
  // (immutable during the fan-out) and write only their own slot.
  pool_.for_chunks(batch, kCfSlotPairs, [&](std::size_t begin,
                                            std::size_t end) {
    const std::size_t size = end - begin;
    nn::Tape st;
    const nn::Var u = st.input(gather_rows(rep, users.subspan(begin, size)));
    const nn::Var p =
        st.input(gather_rows(rep, positives.subspan(begin, size)));
    const nn::Var n =
        st.input(gather_rows(rep, negatives.subspan(begin, size)));

    const nn::Var pos_scores = st.sum_cols(st.mul(u, p));
    const nn::Var neg_scores = st.sum_cols(st.mul(u, n));
    // Slot share of the batch objective: softplus terms carry the
    // 1/B of the BPR mean, the L2 term the lambda/B of Eq. 13.
    const nn::Var bpr = st.scale(
        st.reduce_sum(st.softplus(st.sub(neg_scores, pos_scores))),
        inv_batch);
    const nn::Var reg = st.scale(
        st.reduce_sum(
            st.add(st.add(st.square(u), st.square(p)), st.square(n))),
        l2_coefficient * inv_batch);
    const nn::Var loss = st.add(bpr, reg);

    CfSlot& out = slots[begin / kCfSlotPairs];
    out.loss = static_cast<double>(st.value(loss)(0, 0));
    st.backward(loss);
    out.gu = grad_or_zero(st, u, size, rep.cols());
    out.gp = grad_or_zero(st, p, size, rep.cols());
    out.gn = grad_or_zero(st, n, size, rep.cols());
  });

  // Slot-ordered reduction: the scatter below and the loss sum are the
  // only cross-slot floating-point operations, and both run serially in
  // slot order, so the thread count cannot change a bit of either.
  double total_loss = 0.0;
  nn::Tensor seed(rep.rows(), rep.cols());
  for (std::size_t s = 0; s < n_slots; ++s) {
    const std::size_t begin = s * kCfSlotPairs;
    const std::size_t size = std::min(kCfSlotPairs, batch - begin);
    const CfSlot& slot = slots[s];
    total_loss += slot.loss;
    for (std::size_t i = 0; i < size; ++i) {
      auto src = slot.gu.row(i);
      auto dst = seed.row(users[begin + i]);
      for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
    }
    for (std::size_t i = 0; i < size; ++i) {
      auto src = slot.gp.row(i);
      auto dst = seed.row(positives[begin + i]);
      for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
    }
    for (std::size_t i = 0; i < size; ++i) {
      auto src = slot.gn.row(i);
      auto dst = seed.row(negatives[begin + i]);
      for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
    }
  }

  // One shared backward through the propagation stack, then the
  // slot-ordered parallel Adam.
  tape.backward_seeded(representation, seed);
  optimizer.step(params, pool_);
  return static_cast<float>(total_loss);
}

float MinibatchTrainer::kg_step(TransR& transr, std::span<const KgEdge> batch,
                                std::span<const std::uint32_t> negative_tails,
                                nn::ParamStore& params,
                                nn::AdamOptimizer& optimizer) {
  if (negative_tails.size() != batch.size()) {
    throw std::invalid_argument(
        "kg_step: one presampled negative tail per edge");
  }
  if (batch.empty()) return 0.0f;

  // Relation-major stable order: edges sharing W_r become contiguous,
  // ties keep sample order. The slot partition derives from this order
  // alone.
  std::vector<std::uint32_t> order(batch.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return batch[a].relation < batch[b].relation;
                   });

  struct KgSlot {
    std::uint32_t relation = 0;
    std::vector<std::uint32_t> heads, tails, negs;
    double loss = 0.0;
    nn::Tensor gw, ge, gh, gt, gn;
  };
  std::vector<KgSlot> slots;
  std::size_t group_begin = 0;
  while (group_begin < order.size()) {
    const std::uint32_t r = batch[order[group_begin]].relation;
    std::size_t group_end = group_begin;
    while (group_end < order.size() &&
           batch[order[group_end]].relation == r) {
      ++group_end;
    }
    for (std::size_t s0 = group_begin; s0 < group_end; s0 += kKgSlotEdges) {
      const std::size_t s1 = std::min(group_end, s0 + kKgSlotEdges);
      KgSlot slot;
      slot.relation = r;
      for (std::size_t i = s0; i < s1; ++i) {
        const KgEdge& edge = batch[order[i]];
        slot.heads.push_back(edge.head);
        slot.tails.push_back(edge.tail);
        slot.negs.push_back(negative_tails[order[i]]);
      }
      slots.push_back(std::move(slot));
    }
    group_begin = group_end;
  }

  const nn::Tensor& entities = transr.entity_embedding().value();
  const nn::Tensor& relations = transr.relation_embedding().value();
  const float margin = transr.config().margin;
  const float inv_batch = 1.0f / static_cast<float>(batch.size());

  pool_.for_chunks(slots.size(), 1, [&](std::size_t s, std::size_t) {
    KgSlot& slot = slots[s];
    const nn::Tensor& w_value =
        transr.projection(slot.relation).value();
    nn::Tensor e_row(1, relations.cols());
    {
      auto src = relations.row(slot.relation);
      std::copy(src.begin(), src.end(), e_row.row(0).begin());
    }
    nn::Tape st;
    const nn::Var w = st.input(w_value);
    const nn::Var e_r = st.input(std::move(e_row));
    const nn::Var h = st.input(gather_rows(entities, slot.heads));
    const nn::Var t = st.input(gather_rows(entities, slot.tails));
    const nn::Var n = st.input(gather_rows(entities, slot.negs));

    const nn::Var head_projected = st.add_rowvec(st.matmul(h, w), e_r);
    const nn::Var f_pos =
        st.sum_cols(st.square(st.sub(head_projected, st.matmul(t, w))));
    const nn::Var f_neg =
        st.sum_cols(st.square(st.sub(head_projected, st.matmul(n, w))));
    const nn::Var loss = st.scale(
        st.reduce_sum(
            st.relu(st.add_scalar(st.sub(f_pos, f_neg), margin))),
        inv_batch);

    slot.loss = static_cast<double>(st.value(loss)(0, 0));
    st.backward(loss);
    slot.gw = grad_or_zero(st, w, w_value.rows(), w_value.cols());
    slot.ge = grad_or_zero(st, e_r, 1, relations.cols());
    slot.gh = grad_or_zero(st, h, slot.heads.size(), entities.cols());
    slot.gt = grad_or_zero(st, t, slot.tails.size(), entities.cols());
    slot.gn = grad_or_zero(st, n, slot.negs.size(), entities.cols());
  });

  // Serial slot-ordered scatter into the parameter accumulators.
  nn::Parameter& entity_param = transr.entity_embedding();
  nn::Parameter& relation_param = transr.relation_embedding();
  double total_loss = 0.0;
  auto scatter_rows = [&](const nn::Tensor& src,
                          const std::vector<std::uint32_t>& ids) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      auto g = src.row(i);
      auto dst = entity_param.grad().row(ids[i]);
      for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += g[c];
      entity_param.mark_row(ids[i]);
    }
  };
  for (const KgSlot& slot : slots) {
    total_loss += slot.loss;
    nn::Parameter& w = transr.projection(slot.relation);
    nn::axpy(1.0f, slot.gw, w.grad());
    w.mark_dense();
    {
      auto g = slot.ge.row(0);
      auto dst = relation_param.grad().row(slot.relation);
      for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += g[c];
      relation_param.mark_row(slot.relation);
    }
    scatter_rows(slot.gh, slot.heads);
    scatter_rows(slot.gt, slot.tails);
    scatter_rows(slot.gn, slot.negs);
  }

  optimizer.step(params, pool_);
  return static_cast<float>(total_loss);
}

}  // namespace ckat::core
