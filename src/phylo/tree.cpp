#include "phylo/tree.hpp"

#include <atomic>
#include <sstream>
#include <stdexcept>

namespace cbe::phylo {

std::uint64_t Tree::next_revision() noexcept {
  // Starts at 1: an engine that has seen no tree holds revision 0.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

Tree::Tree(int n_taxa, int t0, int t1, int t2, double initial_length)
    : n_taxa_(n_taxa) {
  if (n_taxa < 3) throw std::invalid_argument("Tree: need >= 3 taxa");
  adj_.resize(static_cast<std::size_t>(n_taxa));
  const int x = node_count();
  adj_.emplace_back();
  for (int t : {t0, t1, t2}) {
    const int e = add_edge(t, x, initial_length);
    (void)e;
  }
}

int Tree::add_edge(int a, int b, double length) {
  const int id = edge_count();
  edges_.push_back(Edge{a, b, length});
  adj_[static_cast<std::size_t>(a)].push_back(Neighbor{b, id});
  adj_[static_cast<std::size_t>(b)].push_back(Neighbor{a, id});
  return id;
}

Tree::Neighbor& Tree::find_neighbor(int node, int other) {
  for (auto& nb : adj_[static_cast<std::size_t>(node)]) {
    if (nb.node == other) return nb;
  }
  throw std::logic_error("Tree: neighbor not found");
}

void Tree::replace_neighbor(int node, int old_node, int new_node,
                            int new_edge) {
  Neighbor& nb = find_neighbor(node, old_node);
  nb.node = new_node;
  nb.edge = new_edge;
}

int Tree::insert_leaf(int leaf, int edge, double leaf_length) {
  if (taxon_in_tree(leaf)) {
    throw std::logic_error("insert_leaf: taxon already inserted");
  }
  Edge& e = edges_[static_cast<std::size_t>(edge)];
  const int a = e.a, b = e.b;
  const double half = e.length * 0.5;
  const int x = node_count();
  adj_.emplace_back();

  // `edge` becomes (a, x); a new edge connects (x, b).
  e.b = x;
  e.length = half;
  replace_neighbor(a, b, x, edge);
  adj_[static_cast<std::size_t>(x)].push_back(Neighbor{a, edge});
  const int e2 = edge_count();
  edges_.push_back(Edge{x, b, half});
  adj_[static_cast<std::size_t>(x)].push_back(Neighbor{b, e2});
  replace_neighbor(b, a, x, e2);

  const int e3 = add_edge(x, leaf, leaf_length);
  revision_ = next_revision();
  return e3;
}

Tree Tree::random(int n_taxa, util::Rng& rng, double initial_length) {
  std::vector<int> order(static_cast<std::size_t>(n_taxa));
  for (int i = 0; i < n_taxa; ++i) order[static_cast<std::size_t>(i)] = i;
  rng.shuffle(order);
  Tree t(n_taxa, order[0], order[1], order[2], initial_length);
  for (int i = 3; i < n_taxa; ++i) {
    const int edge = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(t.edge_count())));
    t.insert_leaf(order[static_cast<std::size_t>(i)], edge, initial_length);
  }
  return t;
}

std::vector<int> Tree::internal_edges() const {
  std::vector<int> out;
  for (int e = 0; e < edge_count(); ++e) {
    const auto& ed = edges_[static_cast<std::size_t>(e)];
    if (!leaf(ed.a) && !leaf(ed.b)) out.push_back(e);
  }
  return out;
}

std::vector<int> Tree::all_edges() const {
  std::vector<int> out(edges_.size());
  for (int e = 0; e < edge_count(); ++e) out[static_cast<std::size_t>(e)] = e;
  return out;
}

void Tree::nni(int edge, int variant) {
  Edge& e = edges_[static_cast<std::size_t>(edge)];
  const int u = e.a, v = e.b;
  if (leaf(u) || leaf(v)) {
    throw std::invalid_argument("nni: edge must be internal");
  }
  // Pick one subtree on each side (excluding the edge itself).
  int b_node = -1, b_edge = -1;
  for (const auto& nb : adj_[static_cast<std::size_t>(u)]) {
    if (nb.edge != edge) {
      b_node = nb.node;
      b_edge = nb.edge;
      break;
    }
  }
  int c_node = -1, c_edge = -1;
  int seen = 0;
  for (const auto& nb : adj_[static_cast<std::size_t>(v)]) {
    if (nb.edge == edge) continue;
    if (seen == (variant & 1)) {
      c_node = nb.node;
      c_edge = nb.edge;
      break;
    }
    ++seen;
  }
  if (b_node < 0 || c_node < 0) throw std::logic_error("nni: bad topology");

  // Swap subtrees b and c across the edge.
  replace_neighbor(u, b_node, c_node, c_edge);
  replace_neighbor(v, c_node, b_node, b_edge);
  // b keeps its edge but now hangs off v; likewise c off u.
  replace_neighbor(b_node, u, v, b_edge);
  replace_neighbor(c_node, v, u, c_edge);
  Edge& be = edges_[static_cast<std::size_t>(b_edge)];
  if (be.a == u) be.a = v; else if (be.b == u) be.b = v;
  Edge& ce = edges_[static_cast<std::size_t>(c_edge)];
  if (ce.a == v) ce.a = u; else if (ce.b == v) ce.b = u;
  revision_ = next_revision();
}

namespace {

struct NewickParser {
  const std::string& text;
  std::size_t pos = 0;
  const std::vector<std::string>* names;

  char peek() const { return pos < text.size() ? text[pos] : '\0'; }
  char take() {
    if (pos >= text.size()) throw std::runtime_error("newick: truncated");
    return text[pos++];
  }
  void expect(char c) {
    if (take() != c) {
      throw std::runtime_error(std::string("newick: expected '") + c + "'");
    }
  }

  struct Node {
    int taxon = -1;              // >= 0 for leaves
    std::vector<int> children;   // indices into `nodes`
    std::vector<double> lengths; // branch length to each child
  };
  std::vector<Node> nodes;

  int parse_clade() {
    if (peek() == '(') {
      take();
      Node n;
      for (;;) {
        const int child = parse_clade();
        double len = 0.1;
        if (peek() == ':') {
          take();
          len = parse_number();
        }
        n.children.push_back(child);
        n.lengths.push_back(len);
        if (peek() == ',') {
          take();
          continue;
        }
        break;
      }
      expect(')');
      nodes.push_back(std::move(n));
      return static_cast<int>(nodes.size() - 1);
    }
    // Leaf label.
    std::string label;
    while (pos < text.size() && text[pos] != ':' && text[pos] != ',' &&
           text[pos] != ')' && text[pos] != ';') {
      label.push_back(take());
    }
    if (label.empty()) throw std::runtime_error("newick: empty label");
    Node n;
    n.taxon = resolve(label);
    nodes.push_back(std::move(n));
    return static_cast<int>(nodes.size() - 1);
  }

  int resolve(const std::string& label) const {
    if (names != nullptr) {
      for (std::size_t i = 0; i < names->size(); ++i) {
        if ((*names)[i] == label) return static_cast<int>(i);
      }
      throw std::runtime_error("newick: unknown taxon " + label);
    }
    if (label.size() < 2 || label[0] != 't') {
      throw std::runtime_error("newick: unparseable label " + label);
    }
    return std::stoi(label.substr(1));
  }

  double parse_number() {
    std::size_t used = 0;
    const double v = std::stod(text.substr(pos), &used);
    pos += used;
    return v;
  }
};

}  // namespace

Tree Tree::from_newick(const std::string& text,
                       const std::vector<std::string>* names) {
  NewickParser parser{text, 0, names, {}};
  const int root = parser.parse_clade();
  if (parser.peek() == ';') parser.take();

  // Collect taxa and validate arity: the root is a trifurcation, every
  // other internal node bifurcates (unrooted binary tree).
  int n_taxa = 0;
  for (const auto& n : parser.nodes) {
    if (n.taxon >= 0) {
      ++n_taxa;
    }
  }
  if (n_taxa < 3) throw std::runtime_error("newick: fewer than 3 taxa");
  const auto& rn = parser.nodes[static_cast<std::size_t>(root)];
  if (rn.children.size() != 3) {
    throw std::runtime_error("newick: root must trifurcate (unrooted tree)");
  }

  // Build the Tree directly: leaves 0..n-1, internals appended.
  Tree t(n_taxa, 0, 0, 0);  // placeholder; rebuilt below
  t.edges_.clear();
  t.adj_.assign(static_cast<std::size_t>(n_taxa), {});

  // Map parser nodes to tree node ids (leaves keep taxon ids).
  std::vector<int> id(parser.nodes.size(), -1);
  std::vector<bool> seen(static_cast<std::size_t>(n_taxa), false);
  for (std::size_t i = 0; i < parser.nodes.size(); ++i) {
    const auto& n = parser.nodes[i];
    if (n.taxon >= 0) {
      if (n.taxon >= n_taxa || seen[static_cast<std::size_t>(n.taxon)]) {
        throw std::runtime_error("newick: bad or duplicate taxon id");
      }
      seen[static_cast<std::size_t>(n.taxon)] = true;
      id[i] = n.taxon;
      continue;
    }
    if (static_cast<int>(i) != root && n.children.size() != 2) {
      throw std::runtime_error("newick: internal nodes must bifurcate");
    }
    id[i] = t.node_count();
    t.adj_.emplace_back();
  }
  for (std::size_t i = 0; i < parser.nodes.size(); ++i) {
    const auto& n = parser.nodes[i];
    for (std::size_t k = 0; k < n.children.size(); ++k) {
      t.add_edge(id[i], id[static_cast<std::size_t>(n.children[k])],
                 n.lengths[k]);
    }
  }
  t.check_consistency();
  return t;
}

std::string Tree::newick(const std::vector<std::string>* names) const {
  auto label = [names](int taxon) {
    return names != nullptr && taxon < static_cast<int>(names->size())
               ? (*names)[static_cast<std::size_t>(taxon)]
               : "t" + std::to_string(taxon);
  };
  // Root at the internal node adjacent to taxon 0.
  const int start = adj_[0].empty() ? 0 : adj_[0].front().node;
  std::ostringstream out;
  // Recursive lambda via explicit Y-combinator style.
  auto emit = [&](auto&& self, int node, int parent) -> void {
    if (leaf(node)) {
      out << label(node);
      return;
    }
    out << '(';
    bool first = true;
    for (const auto& nb : adj_[static_cast<std::size_t>(node)]) {
      if (nb.node == parent) continue;
      if (!first) out << ',';
      first = false;
      self(self, nb.node, node);
      out << ':' << branch_length(nb.edge);
    }
    out << ')';
  };
  emit(emit, start, -1);
  out << ';';
  return out.str();
}

Tree::Flat Tree::to_flat() const {
  Flat flat;
  flat.n_taxa = n_taxa_;
  flat.edges.reserve(edges_.size());
  for (const Edge& e : edges_) {
    flat.edges.push_back(Flat::FlatEdge{e.a, e.b, e.length});
  }
  flat.adj = adj_;
  return flat;
}

Tree Tree::from_flat(const Flat& flat) {
  if (flat.n_taxa < 3) {
    throw std::runtime_error("Tree::from_flat: fewer than 3 taxa");
  }
  // A complete unrooted binary tree over n taxa has 2n-2 nodes and 2n-3
  // edges; anything else is a corrupted record.
  const std::size_t nodes = static_cast<std::size_t>(2 * flat.n_taxa) - 2;
  const std::size_t edges = static_cast<std::size_t>(2 * flat.n_taxa) - 3;
  if (flat.adj.size() != nodes || flat.edges.size() != edges) {
    throw std::runtime_error("Tree::from_flat: node/edge count mismatch");
  }
  Tree t(flat.n_taxa, 0, 1, 2);
  t.edges_.clear();
  t.adj_.assign(flat.adj.begin(), flat.adj.end());
  for (const Flat::FlatEdge& e : flat.edges) {
    if (e.a < 0 || e.b < 0 || e.a >= static_cast<int>(nodes) ||
        e.b >= static_cast<int>(nodes)) {
      throw std::runtime_error("Tree::from_flat: edge endpoint out of range");
    }
    t.edges_.push_back(Edge{e.a, e.b, e.length});
  }
  for (const auto& nbs : t.adj_) {
    for (const Neighbor& nb : nbs) {
      if (nb.node < 0 || nb.node >= static_cast<int>(nodes) || nb.edge < 0 ||
          nb.edge >= static_cast<int>(edges)) {
        throw std::runtime_error("Tree::from_flat: neighbor out of range");
      }
    }
  }
  try {
    t.check_consistency();
  } catch (const std::logic_error& e) {
    throw std::runtime_error(std::string("Tree::from_flat: ") + e.what());
  }
  return t;
}

void Tree::check_consistency() const {
  for (int n = 0; n < node_count(); ++n) {
    const auto& nbs = adj_[static_cast<std::size_t>(n)];
    if (nbs.empty()) continue;  // not yet inserted
    const std::size_t want = leaf(n) ? 1 : 3;
    if (nbs.size() != want) {
      throw std::logic_error("check_consistency: bad degree at node " +
                             std::to_string(n));
    }
    for (const auto& nb : nbs) {
      const auto [a, b] = edge_nodes(nb.edge);
      if ((a != n && b != n) || (a == n ? b : a) != nb.node) {
        throw std::logic_error("check_consistency: edge/adjacency mismatch");
      }
      bool reciprocal = false;
      for (const auto& other : adj_[static_cast<std::size_t>(nb.node)]) {
        if (other.node == n && other.edge == nb.edge) reciprocal = true;
      }
      if (!reciprocal) {
        throw std::logic_error("check_consistency: non-reciprocal edge");
      }
    }
  }
}

}  // namespace cbe::phylo
