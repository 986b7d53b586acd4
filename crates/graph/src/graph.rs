use gvex_linalg::Matrix;
use rustc_hash::{FxHashMap, FxHashSet};
use smallvec::SmallVec;
use std::collections::VecDeque;

/// Dense node index, local to one [`Graph`].
pub type NodeId = u32;
/// Real-world entity type of a node (e.g. an atom symbol), per §2.1. Types
/// are enforced by pattern matching; they are distinct from class labels.
pub type NodeType = u16;
/// Type of an edge (e.g. a bond kind).
pub type EdgeType = u16;

/// An attributed undirected graph `G = (V, E, T, L)` (§2.1).
///
/// Each node has a [`NodeType`] and a feature vector (a row of the feature
/// matrix); each edge has an [`EdgeType`]. Neighbor lists are kept sorted so
/// iteration order is deterministic.
#[derive(Debug, Clone)]
pub struct Graph {
    node_types: Vec<NodeType>,
    adj: Vec<SmallVec<[NodeId; 6]>>,
    edge_types: FxHashMap<(NodeId, NodeId), EdgeType>,
    features: Matrix,
    num_edges: usize,
}

impl Graph {
    /// Creates an empty graph whose nodes will carry `feature_dim` features.
    pub fn new(feature_dim: usize) -> Self {
        Self {
            node_types: Vec::new(),
            adj: Vec::new(),
            edge_types: FxHashMap::default(),
            features: Matrix::zeros(0, feature_dim),
            num_edges: 0,
        }
    }

    /// Creates an empty graph with room for `nodes` nodes, for callers
    /// that know the node count up front.
    pub fn with_capacity(feature_dim: usize, nodes: usize) -> Self {
        let mut g = Self::new(feature_dim);
        g.node_types.reserve_exact(nodes);
        g.adj.reserve_exact(nodes);
        g.features.reserve_rows(nodes);
        g
    }

    /// Adds a node of type `ty` with the given feature row; returns its id.
    ///
    /// # Panics
    /// Panics if `features.len()` differs from the graph's feature dimension.
    pub fn add_node(&mut self, ty: NodeType, features: &[f64]) -> NodeId {
        assert_eq!(features.len(), self.features.cols(), "feature dimension mismatch");
        let id = self.node_types.len() as NodeId;
        self.node_types.push(ty);
        self.adj.push(SmallVec::new());
        self.features.push_row(features);
        id
    }

    /// Drops the spare capacity node-at-a-time construction leaves in the
    /// node tables and the feature matrix, so a graph kept for long
    /// holds only its own data.
    pub fn shrink_to_fit(&mut self) {
        self.node_types.shrink_to_fit();
        self.adj.shrink_to_fit();
        self.features.shrink_to_fit();
    }

    /// Adds a node whose feature row is the one-hot encoding of its type.
    pub fn add_typed_node(&mut self, ty: NodeType) -> NodeId {
        let dim = self.features.cols();
        let mut feats = vec![0.0; dim];
        if (ty as usize) < dim {
            feats[ty as usize] = 1.0;
        }
        self.add_node(ty, &feats)
    }

    /// Adds an undirected edge of type `ty` between `u` and `v`.
    /// Idempotent: re-adding an existing edge only updates its type.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, ty: EdgeType) {
        assert!(u != v, "self-loops are not allowed");
        assert!(
            (u as usize) < self.adj.len() && (v as usize) < self.adj.len(),
            "edge endpoint out of range"
        );
        let key = (u.min(v), u.max(v));
        if self.edge_types.insert(key, ty).is_none() {
            let pos = self.adj[u as usize].binary_search(&v).unwrap_err();
            self.adj[u as usize].insert(pos, v);
            let pos = self.adj[v as usize].binary_search(&u).unwrap_err();
            self.adj[v as usize].insert(pos, u);
            self.num_edges += 1;
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Rough heap footprint of this graph in bytes — the unit of the
    /// pager's resident-budget accounting. Counts the dominant buffers
    /// (feature matrix, adjacency lists, node/edge type tables) with
    /// flat per-entry estimates; it is a stable, cheap approximation,
    /// not an allocator-exact measurement.
    pub fn approx_bytes(&self) -> usize {
        let n = self.node_types.len();
        let deg_sum: usize = self.adj.iter().map(|l| l.len()).sum();
        96  // struct + container headers
            + n * 2                        // node_types
            + n * 32 + deg_sum * 4         // adjacency (inline header + entries)
            + self.edge_types.len() * 16   // edge-type map entries
            + self.features.rows() * self.features.cols() * 8
    }

    /// Feature dimensionality `D`.
    #[inline]
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// The `|V| x D` input feature matrix `X`.
    #[inline]
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Type of node `v`.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> NodeType {
        self.node_types[v as usize]
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v as usize].len()
    }

    /// Whether the undirected edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_types.contains_key(&(u.min(v), u.max(v)))
    }

    /// Type of the edge `{u, v}` if present.
    #[inline]
    pub fn edge_type(&self, u: NodeId, v: NodeId) -> Option<EdgeType> {
        self.edge_types.get(&(u.min(v), u.max(v))).copied()
    }

    /// Iterator over all undirected edges as `(u, v, type)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeType)> + '_ {
        let mut keys: Vec<_> = self.edge_types.iter().map(|(&(u, v), &t)| (u, v, t)).collect();
        keys.sort_unstable();
        keys.into_iter()
    }

    /// All node ids `0..|V|`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_types.len() as NodeId
    }

    /// Average degree `d` of the graph (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_nodes() as f64
        }
    }

    /// The node-induced subgraph on `nodes` (§2.1 pattern-matching
    /// semantics): keeps every edge of `G` whose endpoints both lie in
    /// `nodes`. Returns the subgraph together with the mapping
    /// `subgraph id -> original id`.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut order: Vec<NodeId> = nodes.to_vec();
        order.sort_unstable();
        order.dedup();
        let mut remap: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        let mut sub = Graph::with_capacity(self.feature_dim(), order.len());
        for &v in &order {
            let nv = sub.add_node(self.node_type(v), self.features.row(v as usize));
            remap.insert(v, nv);
        }
        for &v in &order {
            for &w in self.neighbors(v) {
                if v < w {
                    if let Some(&nw) = remap.get(&w) {
                        let ty = self.edge_type(v, w).expect("adjacency/edge-type divergence");
                        sub.add_edge(remap[&v], nw, ty);
                    }
                }
            }
        }
        (sub, order)
    }

    /// The subgraph `G \ V_s` obtained by removing the given nodes (and all
    /// incident edges) — the "remaining fraction" used by the counterfactual
    /// check `M(G \ G_s) != l` (§2.2).
    pub fn remove_nodes(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let drop: FxHashSet<NodeId> = nodes.iter().copied().collect();
        let keep: Vec<NodeId> = self.node_ids().filter(|v| !drop.contains(v)).collect();
        self.induced_subgraph(&keep)
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        if self.num_nodes() <= 1 {
            return true;
        }
        let mut seen = vec![false; self.num_nodes()];
        let mut queue = VecDeque::from([0 as NodeId]);
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for &w in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    queue.push_back(w);
                }
            }
        }
        count == self.num_nodes()
    }

    /// Connected components as sorted node-id lists.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let mut seen = vec![false; self.num_nodes()];
        let mut out = Vec::new();
        for s in self.node_ids() {
            if seen[s as usize] {
                continue;
            }
            let mut comp = vec![s];
            seen[s as usize] = true;
            let mut queue = VecDeque::from([s]);
            while let Some(v) = queue.pop_front() {
                for &w in self.neighbors(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        comp.push(w);
                        queue.push_back(w);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// Nodes within `r` hops of `v` (including `v` itself), sorted.
    pub fn r_hop(&self, v: NodeId, r: usize) -> Vec<NodeId> {
        let mut dist: FxHashMap<NodeId, usize> = FxHashMap::default();
        dist.insert(v, 0);
        let mut queue = VecDeque::from([v]);
        while let Some(u) = queue.pop_front() {
            let d = dist[&u];
            if d == r {
                continue;
            }
            for &w in self.neighbors(u) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                    e.insert(d + 1);
                    queue.push_back(w);
                }
            }
        }
        let mut out: Vec<NodeId> = dist.into_keys().collect();
        out.sort_unstable();
        out
    }

    /// Replaces all node features with a one-hot encoding of the node's
    /// degree, capped at `buckets - 1`. This is the standard featurization
    /// for datasets without node attributes (e.g. REDDIT-BINARY,
    /// MALNET) in graph-classification practice.
    pub fn set_degree_features(&mut self, buckets: usize) {
        assert!(buckets >= 1);
        let n = self.num_nodes();
        let mut m = Matrix::zeros(n, buckets);
        for v in 0..n {
            let b = self.adj[v].len().min(buckets - 1);
            m.set(v, b, 1.0);
        }
        self.features = m;
    }

    /// Replaces all node features with `[one-hot type | one-hot degree
    /// bucket]` — used when both the entity type and the local topology
    /// carry signal (e.g. the SYNTHETIC BA+motif dataset).
    pub fn set_typed_degree_features(&mut self, num_types: usize, buckets: usize) {
        assert!(num_types >= 1 && buckets >= 1);
        let n = self.num_nodes();
        let mut m = Matrix::zeros(n, num_types + buckets);
        for v in 0..n {
            let t = (self.node_types[v] as usize).min(num_types - 1);
            m.set(v, t, 1.0);
            let b = self.adj[v].len().min(buckets - 1);
            m.set(v, num_types + b, 1.0);
        }
        self.features = m;
    }

    /// Multiset of node types present in the graph, as a sorted vector.
    pub fn type_multiset(&self) -> Vec<NodeType> {
        let mut t = self.node_types.clone();
        t.sort_unstable();
        t
    }
}
