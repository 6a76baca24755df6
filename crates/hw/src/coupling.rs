//! Qubit connectivity: which pairs may host a two-qubit gate.
//!
//! The paper's model (and the rest of the pipeline) assumes all-to-all
//! coupling; real backends are topology-constrained. A [`CouplingMap`] is an
//! undirected graph over physical qubits — two-qubit gates are only
//! executable on its edges, and anything else must be routed there with
//! SWAP insertions priced from the gate table (Table I's `SWAP_d` /
//! `SWAP_c` realizations).
//!
//! Constructors cover the standard families (line, ring, grid, star, full
//! coupling) plus the Starmon-5 star-plus-center layout, and a
//! QASM-adjacent JSON loader accepts externally described devices.

use qca_circuit::hash::Fnv64;
use qca_trace::json::{self, Json};
use std::collections::VecDeque;

/// Largest qubit count [`CouplingMap::from_json`] accepts: a bound on the
/// adjacency allocation an untrusted document can request.
const MAX_JSON_QUBITS: usize = 1 << 16;

/// An undirected qubit-connectivity graph.
///
/// Edges are stored normalized (`a < b`), sorted, and deduplicated, so two
/// maps over the same topology compare equal and
/// [`fingerprint`](CouplingMap::fingerprint) identically regardless of the
/// edge order they were built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingMap {
    num_qubits: usize,
    edges: Vec<(usize, usize)>,
    adj: Vec<Vec<usize>>,
}

impl CouplingMap {
    /// Creates a map over `num_qubits` qubits with the given undirected
    /// edges. Edge order and orientation are irrelevant; duplicates are
    /// dropped.
    ///
    /// # Errors
    ///
    /// Returns a description of the first self-loop or out-of-range
    /// endpoint.
    pub fn new(
        num_qubits: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<CouplingMap, String> {
        let mut normalized: Vec<(usize, usize)> = Vec::new();
        for (a, b) in edges {
            if a == b {
                return Err(format!("self-loop on qubit {a}"));
            }
            if a >= num_qubits || b >= num_qubits {
                return Err(format!("edge ({a}, {b}) exceeds qubit count {num_qubits}"));
            }
            normalized.push((a.min(b), a.max(b)));
        }
        normalized.sort_unstable();
        normalized.dedup();
        let mut adj = vec![Vec::new(); num_qubits];
        for &(a, b) in &normalized {
            adj[a].push(b);
            adj[b].push(a);
        }
        for neighbors in &mut adj {
            neighbors.sort_unstable();
        }
        Ok(CouplingMap {
            num_qubits,
            edges: normalized,
            adj,
        })
    }

    /// Every pair coupled: the topology today's encoder implicitly assumes.
    pub fn all_to_all(num_qubits: usize) -> CouplingMap {
        let edges = (0..num_qubits).flat_map(|a| ((a + 1)..num_qubits).map(move |b| (a, b)));
        CouplingMap::new(num_qubits, edges).expect("generated edges are valid")
    }

    /// A linear chain `0 — 1 — … — n-1`.
    pub fn line(num_qubits: usize) -> CouplingMap {
        let edges = (1..num_qubits).map(|b| (b - 1, b));
        CouplingMap::new(num_qubits, edges).expect("generated edges are valid")
    }

    /// A cycle: the line plus the closing edge `n-1 — 0` (for `n >= 3`).
    pub fn ring(num_qubits: usize) -> CouplingMap {
        let mut edges: Vec<(usize, usize)> = (1..num_qubits).map(|b| (b - 1, b)).collect();
        if num_qubits >= 3 {
            edges.push((0, num_qubits - 1));
        }
        CouplingMap::new(num_qubits, edges).expect("generated edges are valid")
    }

    /// A star with qubit 0 at the center: every two-qubit gate must touch
    /// qubit 0.
    pub fn star(num_qubits: usize) -> CouplingMap {
        let edges = (1..num_qubits).map(|b| (0, b));
        CouplingMap::new(num_qubits, edges).expect("generated edges are valid")
    }

    /// The Starmon-5 layout: five qubits in a plus shape with the
    /// fully-connected qubit 2 at the center — every two-qubit gate must
    /// touch qubit 2.
    pub fn starmon5() -> CouplingMap {
        CouplingMap::new(5, [(0, 2), (1, 2), (2, 3), (2, 4)]).expect("generated edges are valid")
    }

    /// The topology family named `name` (`line`, `ring`, `star`,
    /// `starmon5` or `all`), as a constructor sized by qubit count
    /// (Starmon-5 is a fixed 5-qubit device and ignores the size).
    ///
    /// # Errors
    ///
    /// Any other name, quoted in the message.
    pub fn topology(name: &str) -> Result<fn(usize) -> CouplingMap, String> {
        match name {
            "line" => Ok(CouplingMap::line),
            "ring" => Ok(CouplingMap::ring),
            "star" => Ok(CouplingMap::star),
            "starmon5" => Ok(|_| CouplingMap::starmon5()),
            "all" => Ok(CouplingMap::all_to_all),
            other => Err(format!("unknown coupling topology {other:?}")),
        }
    }

    /// Loads a map from a QASM-adjacent JSON document of the shape
    /// `{"num_qubits": 5, "edges": [[0, 2], [1, 2], [2, 3], [2, 4]]}`.
    /// `"coupling_map"` is accepted as an alias for `"edges"` (the Qiskit
    /// spelling); whitespace is free-form. Only the top-level keys count,
    /// and every edge must be a two-element array of qubit indices.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, missing field,
    /// malformed number, or invalid edge. Maps over more than 65 536
    /// qubits are refused.
    pub fn from_json(text: &str) -> Result<CouplingMap, String> {
        let doc = json::parse(text)?;
        let index = |v: &Json| v.as_u64().and_then(|n| usize::try_from(n).ok());
        let num_qubits = doc
            .get("num_qubits")
            .and_then(index)
            .ok_or("missing or malformed \"num_qubits\" field")?;
        if num_qubits > MAX_JSON_QUBITS {
            return Err(format!(
                "num_qubits {num_qubits} exceeds the limit of {MAX_JSON_QUBITS}"
            ));
        }
        let edges = doc
            .get("edges")
            .or_else(|| doc.get("coupling_map"))
            .and_then(Json::as_arr)
            .ok_or("missing or malformed \"edges\" array")?
            .iter()
            .map(|edge| match edge.as_arr() {
                Some([a, b]) => index(a).zip(index(b)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("every edge must be a [a, b] pair of qubit indices")?;
        CouplingMap::new(num_qubits, edges)
    }

    /// Serializes the map into the JSON shape [`from_json`](Self::from_json)
    /// accepts.
    pub fn to_json(&self) -> String {
        let edges = self
            .edges
            .iter()
            .map(|&(a, b)| Json::from(vec![a, b]))
            .collect();
        Json::obj([
            ("num_qubits", self.num_qubits.into()),
            ("edges", Json::Arr(edges)),
        ])
        .to_string_compact()
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The normalized edge list (`a < b`, ascending).
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// `true` when `a` and `b` share an edge.
    pub fn is_coupled(&self, a: usize, b: usize) -> bool {
        a < self.num_qubits && self.adj[a].binary_search(&b).is_ok()
    }

    /// `true` when every qubit can reach every other qubit.
    pub fn is_connected(&self) -> bool {
        if self.num_qubits <= 1 {
            return true;
        }
        let mut seen = vec![false; self.num_qubits];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(q) = queue.pop_front() {
            for &next in &self.adj[q] {
                if !seen[next] {
                    seen[next] = true;
                    count += 1;
                    queue.push_back(next);
                }
            }
        }
        count == self.num_qubits
    }

    /// BFS hop distance between `a` and `b`; `None` when disconnected or
    /// out of range.
    pub fn distance(&self, a: usize, b: usize) -> Option<usize> {
        self.path(a, b).map(|p| p.len() - 1)
    }

    /// A shortest path from `a` to `b` inclusive. Deterministic: BFS
    /// explores neighbors in ascending index order, so ties always resolve
    /// to the smallest-index route. `None` when disconnected or out of
    /// range.
    pub fn path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        if a >= self.num_qubits || b >= self.num_qubits {
            return None;
        }
        if a == b {
            return Some(vec![a]);
        }
        let mut parent = vec![usize::MAX; self.num_qubits];
        let mut queue = VecDeque::from([a]);
        parent[a] = a;
        while let Some(q) = queue.pop_front() {
            for &next in &self.adj[q] {
                if parent[next] != usize::MAX {
                    continue;
                }
                parent[next] = q;
                if next == b {
                    let mut path = vec![b];
                    let mut cur = b;
                    while cur != a {
                        cur = parent[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// The induced subgraph on qubits `0..num_qubits`: a device larger than
    /// the circuit routes only through qubits the circuit actually owns, so
    /// inserted SWAPs never touch out-of-range wires.
    pub fn restrict(&self, num_qubits: usize) -> CouplingMap {
        if num_qubits >= self.num_qubits {
            return self.clone();
        }
        let edges = self
            .edges
            .iter()
            .copied()
            .filter(|&(a, b)| a < num_qubits && b < num_qubits);
        CouplingMap::new(num_qubits, edges).expect("filtered edges are valid")
    }

    /// Stable 64-bit hash of the topology (qubit count + normalized edge
    /// list), for adaptation cache keys. Isomorphic-but-relabelled maps
    /// fingerprint differently: routing depends on labels.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_usize(self.num_qubits);
        h.write_usize(self.edges.len());
        for &(a, b) in &self.edges {
            h.write_usize(a);
            h.write_usize(b);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_have_expected_edge_counts() {
        assert_eq!(CouplingMap::all_to_all(4).edges().len(), 6);
        assert_eq!(CouplingMap::line(4).edges().len(), 3);
        assert_eq!(CouplingMap::ring(4).edges().len(), 4);
        assert_eq!(CouplingMap::star(5).edges().len(), 4);
        assert_eq!(CouplingMap::starmon5().edges().len(), 4);
    }

    #[test]
    fn topology_names_build_their_family() {
        for (name, expected) in [
            ("line", CouplingMap::line(4)),
            ("ring", CouplingMap::ring(4)),
            ("star", CouplingMap::star(4)),
            ("starmon5", CouplingMap::starmon5()),
            ("all", CouplingMap::all_to_all(4)),
        ] {
            assert_eq!(CouplingMap::topology(name).unwrap()(4), expected, "{name}");
        }
        let err = CouplingMap::topology("torus").unwrap_err();
        assert!(err.contains("\"torus\""), "{err}");
    }

    #[test]
    fn edges_normalize_and_dedup() {
        let a = CouplingMap::new(3, [(1, 0), (0, 1), (2, 1)]).unwrap();
        let b = CouplingMap::new(3, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn invalid_edges_rejected() {
        assert!(CouplingMap::new(3, [(1, 1)]).is_err());
        assert!(CouplingMap::new(3, [(0, 3)]).is_err());
    }

    #[test]
    fn coupling_and_distance_on_a_line() {
        let cm = CouplingMap::line(4);
        assert!(cm.is_coupled(1, 2));
        assert!(!cm.is_coupled(0, 3));
        assert_eq!(cm.distance(0, 3), Some(3));
        assert_eq!(cm.path(0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(cm.distance(2, 2), Some(0));
    }

    #[test]
    fn path_is_deterministic_smallest_index() {
        // Ring of 4: 1 -> 3 has two length-2 routes (via 0 or via 2);
        // ascending BFS must pick the one through 0.
        let cm = CouplingMap::ring(4);
        assert_eq!(cm.path(1, 3), Some(vec![1, 0, 3]));
    }

    #[test]
    fn starmon5_routes_through_center() {
        let cm = CouplingMap::starmon5();
        assert!(cm.is_coupled(0, 2));
        assert!(!cm.is_coupled(0, 1));
        assert_eq!(cm.path(0, 1), Some(vec![0, 2, 1]));
        assert!(cm.is_connected());
    }

    #[test]
    fn disconnected_map_detected() {
        let cm = CouplingMap::new(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!cm.is_connected());
        assert_eq!(cm.distance(0, 2), None);
        assert_eq!(cm.path(1, 3), None);
    }

    #[test]
    fn restrict_induces_subgraph() {
        let cm = CouplingMap::starmon5().restrict(3);
        assert_eq!(cm.num_qubits(), 3);
        assert_eq!(cm.edges(), &[(0, 2), (1, 2)]);
        // Restricting to more qubits than the map has is the identity.
        assert_eq!(CouplingMap::line(3).restrict(10), CouplingMap::line(3));
    }

    #[test]
    fn json_round_trip() {
        let cm = CouplingMap::starmon5();
        let parsed = CouplingMap::from_json(&cm.to_json()).unwrap();
        assert_eq!(parsed, cm);
    }

    #[test]
    fn json_accepts_qiskit_spelling_and_whitespace() {
        let text = "{\n  \"num_qubits\": 3,\n  \"coupling_map\": [ [0, 1], [1, 2] ]\n}";
        let cm = CouplingMap::from_json(text).unwrap();
        assert_eq!(cm, CouplingMap::line(3));
    }

    #[test]
    fn json_rejects_malformed_documents() {
        assert!(CouplingMap::from_json("{}").is_err());
        assert!(CouplingMap::from_json("{\"num_qubits\": 3}").is_err());
        assert!(CouplingMap::from_json("{\"num_qubits\": 3, \"edges\": [[0]]}").is_err());
        assert!(CouplingMap::from_json("{\"num_qubits\": 3, \"edges\": [[0, 5]]}").is_err());
        assert!(CouplingMap::from_json("{\"num_qubits\": x, \"edges\": []}").is_err());
    }

    #[test]
    fn json_reads_only_well_formed_top_level_fields() {
        // A key inside a nested object or a string never stands in for
        // the top-level one.
        let nested = r#"{"meta":{"num_qubits":99},"num_qubits":3,"edges":[[0,1],[1,2]]}"#;
        assert_eq!(
            CouplingMap::from_json(nested).unwrap(),
            CouplingMap::line(3)
        );
        let quoted = r#"{"note":"\"num_qubits\": 9","num_qubits":2,"edges":[[0,1]]}"#;
        assert_eq!(CouplingMap::from_json(quoted).unwrap().num_qubits(), 2);
        for bad in [
            // Fractional qubit count.
            r#"{"num_qubits":3.7,"edges":[[0,1]]}"#,
            r#"{"num_qubits":-3,"edges":[[0,1]]}"#,
            // A flat endpoint list, and a pair holding two edges.
            r#"{"num_qubits":3,"edges":[0,1,1,2]}"#,
            r#"{"num_qubits":3,"edges":[[0,1,1,2]]}"#,
            r#"{"num_qubits":3,"edges":[[0,1.5]]}"#,
            // Trailing garbage and duplicate keys.
            r#"{"num_qubits":3,"edges":[[0,1]]} trailing garbage"#,
            r#"{"num_qubits":3,"num_qubits":4,"edges":[]}"#,
            // Only nested fields.
            r#"{"meta":{"num_qubits":3,"edges":[[0,1]]}}"#,
            r#"{"num_qubits":100000,"edges":[]}"#,
            "[]",
        ] {
            assert!(CouplingMap::from_json(bad).is_err(), "accepted {bad}");
        }
    }

    /// Fragments of coupling-map documents, recombined at random.
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        "\"",
        ":",
        ",",
        " ",
        "\"num_qubits\"",
        "\"edges\"",
        "\"coupling_map\"",
        "0",
        "1",
        "3",
        "2.5",
        "-1",
        "99999999999999999999",
        "null",
        "\\",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_documents_never_panic(ix in collection::vec(0..TOKENS.len(), 0..32)) {
            let text: String = ix.iter().map(|&i| TOKENS[i]).collect();
            let _ = CouplingMap::from_json(&text);
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in collection::vec(0u8..=255, 0..64)) {
            let _ = CouplingMap::from_json(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn fingerprint_separates_topologies() {
        let maps = [
            CouplingMap::line(4),
            CouplingMap::ring(4),
            CouplingMap::star(4),
            CouplingMap::all_to_all(4),
            CouplingMap::line(5),
        ];
        for (i, a) in maps.iter().enumerate() {
            for b in &maps[i + 1..] {
                assert_ne!(a.fingerprint(), b.fingerprint());
            }
        }
    }
}
