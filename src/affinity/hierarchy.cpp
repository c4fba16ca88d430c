#include "affinity/hierarchy.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace codelayout {

AffinityHierarchy::AffinityHierarchy(std::vector<AffinityGroup> nodes,
                                     std::vector<std::uint32_t> roots)
    : nodes_(std::move(nodes)), roots_(std::move(roots)) {
  for (std::uint32_t r : roots_) CL_CHECK(r < nodes_.size());
}

const AffinityGroup& AffinityHierarchy::node(std::uint32_t id) const {
  CL_CHECK(id < nodes_.size());
  return nodes_[id];
}

std::vector<std::uint32_t> AffinityHierarchy::partition_at(
    std::uint32_t w) const {
  std::vector<std::uint32_t> out;
  // Descend from each root until the group's formation level fits under w.
  std::vector<std::uint32_t> stack(roots_.begin(), roots_.end());
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    const AffinityGroup& g = nodes_[id];
    if (g.formed_at_w <= w) {
      out.push_back(id);
    } else {
      stack.insert(stack.end(), g.children.begin(), g.children.end());
    }
  }
  std::sort(out.begin(), out.end(), [&](std::uint32_t a, std::uint32_t b) {
    return nodes_[a].first_occurrence < nodes_[b].first_occurrence;
  });
  return out;
}

void AffinityHierarchy::order_children(std::vector<std::uint32_t>& ids) const {
  std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
    return nodes_[a].first_occurrence < nodes_[b].first_occurrence;
  });
}

std::vector<Symbol> AffinityHierarchy::layout_order() const {
  std::vector<Symbol> out;
  out.reserve(symbol_count());
  std::vector<std::uint32_t> top(roots_.begin(), roots_.end());
  order_children(top);

  // Iterative depth-first emission; children of each group are visited by
  // first occurrence, leaves contribute their members.
  std::vector<std::uint32_t> stack(top.rbegin(), top.rend());
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    const AffinityGroup& g = nodes_[id];
    if (g.children.empty()) {
      out.insert(out.end(), g.members.begin(), g.members.end());
      continue;
    }
    std::vector<std::uint32_t> kids(g.children.begin(), g.children.end());
    order_children(kids);
    stack.insert(stack.end(), kids.rbegin(), kids.rend());
  }
  return out;
}

std::size_t AffinityHierarchy::symbol_count() const {
  std::size_t n = 0;
  for (std::uint32_t r : roots_) n += nodes_[r].members.size();
  return n;
}

std::string AffinityHierarchy::to_string() const {
  std::ostringstream os;
  struct Item {
    std::uint32_t id;
    int depth;
  };
  std::vector<Item> stack;
  for (auto it = roots_.rbegin(); it != roots_.rend(); ++it) {
    stack.push_back({*it, 0});
  }
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    const AffinityGroup& g = nodes_[item.id];
    os << std::string(static_cast<std::size_t>(item.depth) * 2, ' ') << "(w="
       << g.formed_at_w << ") {";
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      if (i) os << ' ';
      os << g.members[i];
    }
    os << "}\n";
    for (auto it = g.children.rbegin(); it != g.children.rend(); ++it) {
      stack.push_back({*it, item.depth + 1});
    }
  }
  return os.str();
}

}  // namespace codelayout
