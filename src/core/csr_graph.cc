#include "src/core/csr_graph.h"

#include <algorithm>
#include <utility>

#include "src/core/pairwise_partition.h"
#include "src/core/partition_testbed.h"

namespace actop {

CsrGraph CsrGraph::FromWeighted(const WeightedGraph& g) {
  CsrGraph out;
  out.ids_ = g.Vertices();  // sorted
  const size_t n = out.ids_.size();
  out.index_.Reserve(n);
  for (size_t i = 0; i < n; i++) {
    out.index_.Insert(out.ids_[i], static_cast<int32_t>(i));
  }
  out.offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; i++) {
    out.offsets_[i + 1] = out.offsets_[i] + g.NeighborsOf(out.ids_[i]).size();
  }
  out.nbr_.resize(out.offsets_[n]);
  out.weight_.resize(out.offsets_[n]);
  // Each span is filled from the source hash map then sorted by neighbor
  // index, erasing the map's bucket order from the frozen layout.
  std::vector<std::pair<int32_t, double>> span;
  for (size_t i = 0; i < n; i++) {
    span.clear();
    for (const auto& [u, w] : g.NeighborsOf(out.ids_[i])) {
      const int32_t* u_idx = out.index_.Find(u);
      ACTOP_CHECK(u_idx != nullptr);
      span.emplace_back(*u_idx, w);
    }
    std::sort(span.begin(), span.end());
    size_t e = out.offsets_[i];
    for (const auto& [u_idx, w] : span) {
      out.nbr_[e] = u_idx;
      out.weight_[e] = w;
      e++;
    }
  }
  return out;
}

CsrGraph CsrGraph::FromLocalView(const LocalGraphView& view) {
  std::vector<CsrEdge> edges;
  for (const auto& [v, adj] : view.adjacency) {
    for (const auto& [u, w] : adj) {
      edges.push_back(CsrEdge{v, u, w});
    }
  }
  CsrGraph out;
  out.RebuildFromEdgeList(edges);
  return out;
}

void CsrGraph::RebuildFromEdgeList(const std::vector<CsrEdge>& edges) {
  // Vertex set: sources plus every referenced destination. Endpoints are
  // deduplicated through index_ first, so only the unique ids get sorted
  // (ascending ids == ascending dense indices, as always); the second pass
  // then points each id at its dense index.
  ids_.clear();
  index_.Clear();
  for (const CsrEdge& e : edges) {
    if (index_.Insert(e.src, kNoIndex)) {
      ids_.push_back(e.src);
    }
    if (index_.Insert(e.dst, kNoIndex)) {
      ids_.push_back(e.dst);
    }
  }
  std::sort(ids_.begin(), ids_.end());
  const size_t n = ids_.size();
  for (size_t i = 0; i < n; i++) {
    *index_.Find(ids_[i]) = static_cast<int32_t>(i);
  }
  // Counting sort on source index: count each span, turn the counts into
  // span starts, then place every edge at its source's cursor. Placing
  // advances offsets_[i] to the start of span i + 1, so one shift restores
  // the starts.
  offsets_.assign(n + 1, 0);
  for (const CsrEdge& e : edges) {
    offsets_[static_cast<size_t>(IndexOf(e.src)) + 1]++;
  }
  for (size_t i = 0; i < n; i++) {
    offsets_[i + 1] += offsets_[i];
  }
  nbr_.resize(edges.size());
  weight_.resize(edges.size());
  for (const CsrEdge& e : edges) {
    const size_t slot = offsets_[static_cast<size_t>(IndexOf(e.src))]++;
    nbr_[slot] = IndexOf(e.dst);
    weight_[slot] = e.weight;
  }
  for (size_t i = n; i > 0; i--) {
    offsets_[i] = offsets_[i - 1];
  }
  offsets_[0] = 0;
  // Order each span by destination index; pairs are unique, so the order
  // is total and independent of the input order.
  for (size_t i = 0; i < n; i++) {
    const size_t begin = offsets_[i];
    const size_t end = offsets_[i + 1];
    if (end - begin < 2) {
      continue;
    }
    span_scratch_.clear();
    for (size_t e = begin; e < end; e++) {
      span_scratch_.emplace_back(nbr_[e], weight_[e]);
    }
    std::sort(span_scratch_.begin(), span_scratch_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t e = begin; e < end; e++) {
      const auto& [u_idx, w] = span_scratch_[e - begin];
      ACTOP_DCHECK(e == begin || nbr_[e - 1] < u_idx);
      nbr_[e] = u_idx;
      weight_[e] = w;
    }
  }
}

}  // namespace actop
