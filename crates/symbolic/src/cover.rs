//! Karp–Miller forward acceleration: the ω-cover of a protocol over *all*
//! population sizes.
//!
//! The initial configurations of a unary protocol form the infinite family
//! `{IC(i) : i ≥ 0}`, whose downward closure is the single ideal
//! `↓(L + ω·I(x))`.  Because interactions are monotone (more agents never
//! disable a transition), the classical Karp–Miller construction computes a
//! finite set of ω-rows whose downward closure **covers every configuration
//! reachable from every population size**:
//!
//! * expanding a label fires each non-silent transition with `ω` absorbing
//!   both subtraction and addition;
//! * whenever a successor strictly dominates an ancestor on its path, the
//!   strictly-grown entries are *accelerated* to `ω` (the difference can be
//!   pumped arbitrarily often);
//! * labels are interned in a `popproto_reach::ConfigArena` and a child
//!   whose label was already generated anywhere in the tree is dropped —
//!   identical labels have identical futures, and accelerations only ever
//!   enlarge the cover, so the label set keeps the completeness invariant
//!   *every reachable configuration lies below some generated label*.
//!
//! The label loop returns the arena of labels; [`karp_miller`] turns it
//! into a canonical [`DownwardClosedSet`] (the antichain of maximal
//! labels), while the busy-beaver pre-filter reads the labels directly.
//! `complete` is `false` when the label cap was hit; callers that rely on
//! the cover being an over-approximation of reachability must check it.

use crate::omega::{row_leq, row_to_ideal, OMEGA};
use crate::SymbolicLimits;
use popproto_model::Protocol;
use popproto_reach::{ConfigArena, FlatProtocol};
use popproto_vas::DownwardClosedSet;
use serde::{Deserialize, Serialize};

/// The ω-cover of a protocol: a downward-closed over-approximation of the
/// set of configurations reachable from *any* initial configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KarpMillerCover {
    /// The cover as a canonical union of ideals (maximal labels only).
    pub set: DownwardClosedSet,
    /// Number of distinct ω-labels generated.
    pub labels: usize,
    /// Number of labels expanded before the worklist drained (or the cap hit).
    pub expanded: usize,
    /// `true` if the construction terminated below the label cap; only then
    /// is `set` a sound over-approximation of the reachable configurations.
    pub complete: bool,
}

impl KarpMillerCover {
    /// Returns `true` if `counts` lies below some label of the cover.
    pub fn covers_counts(&self, counts: &[u64]) -> bool {
        self.set.ideals().iter().any(|ideal| {
            ideal
                .bounds()
                .iter()
                .zip(counts)
                .all(|(b, &c)| b.is_none_or(|limit| c <= limit))
        })
    }
}

/// Runs Karp–Miller from the ω-initial row `L + ω·I(x)` (every input
/// variable receives `ω` agents; leaders keep their exact counts).
pub fn karp_miller(protocol: &Protocol, limits: &SymbolicLimits) -> KarpMillerCover {
    let mut candidate = FlatProtocol::default();
    candidate.load(protocol);
    let root: Vec<u32> = omega_initial_row(&candidate).collect();
    let (arena, expanded, complete) =
        karp_miller_labels(&candidate.transitions, &root, limits.max_cover_labels);
    let mut set = DownwardClosedSet::empty();
    for (_, row) in arena.iter() {
        set.insert(row_to_ideal(row));
    }
    set.canonicalize();
    KarpMillerCover {
        set,
        labels: arena.len(),
        expanded,
        complete,
    }
}

/// The ω-initial row `L + ω·I(x)` of `candidate`: [`OMEGA`] at every
/// input state, the leader count elsewhere.
pub(crate) fn omega_initial_row(
    candidate: &FlatProtocol,
) -> impl Iterator<Item = u32> + Clone + '_ {
    let leaders = candidate.leaders.iter().enumerate();
    leaders.map(move |(q, &c)| {
        if candidate.inputs.contains(&q) {
            OMEGA
        } else {
            c
        }
    })
}

/// The Karp–Miller label loop from `root` under the transitions `deltas`
/// (as written by `popproto_reach::transition_deltas`): returns the label
/// arena, the number of labels expanded and whether the loop finished below
/// `max_labels` labels.
pub(crate) fn karp_miller_labels(
    deltas: &[[usize; 4]],
    root: &[u32],
    max_labels: usize,
) -> (ConfigArena, usize, bool) {
    let n = root.len();
    let mut arena = ConfigArena::new(n);
    // `parent[id]` is the node whose expansion produced label `id`
    // (`u32::MAX` for the root); labels are created exactly once, so label
    // ids double as node ids and the ancestor chain of a label is well
    // defined.
    let mut parent: Vec<u32> = Vec::new();
    arena.intern(root);
    parent.push(u32::MAX);

    let mut scratch: Vec<u32> = vec![0; n];
    let mut complete = true;
    let mut head: usize = 0;
    while head < arena.len() {
        if arena.len() > max_labels {
            complete = false;
            break;
        }
        let id = head as u32;
        head += 1;
        for &[p0, p1, q0, q1] in deltas {
            {
                let row = arena.counts_of(id);
                let enabled = if p0 == p1 {
                    row[p0] == OMEGA || row[p0] >= 2
                } else {
                    (row[p0] == OMEGA || row[p0] >= 1) && (row[p1] == OMEGA || row[p1] >= 1)
                };
                if !enabled {
                    continue;
                }
                scratch.copy_from_slice(row);
            }
            omega_dec(&mut scratch, p0);
            omega_dec(&mut scratch, p1);
            omega_inc(&mut scratch, q0);
            omega_inc(&mut scratch, q1);
            // Accelerate against every ancestor on the path, repeating until
            // no ancestor strictly below the successor remains (an
            // acceleration can unlock further dominations).
            loop {
                let mut changed = false;
                let mut anc = id;
                loop {
                    let anc_row = arena.counts_of(anc);
                    if anc_row != scratch && row_leq(anc_row, &scratch) {
                        for q in 0..n {
                            if scratch[q] != OMEGA && anc_row[q] < scratch[q] {
                                scratch[q] = OMEGA;
                                changed = true;
                            }
                        }
                    }
                    if parent[anc as usize] == u32::MAX {
                        break;
                    }
                    anc = parent[anc as usize];
                }
                if !changed {
                    break;
                }
            }
            let (_, fresh) = arena.intern(&scratch);
            if fresh {
                parent.push(id);
            }
        }
    }

    (arena, head, complete)
}

/// Decrements entry `q` of an ω-row (`ω − 1 = ω`).
fn omega_dec(row: &mut [u32], q: usize) {
    if row[q] != OMEGA {
        row[q] -= 1;
    }
}

/// Increments entry `q` of an ω-row (`ω + 1 = ω`).
fn omega_inc(row: &mut [u32], q: usize) {
    if row[q] != OMEGA {
        assert!(row[q] < OMEGA - 1, "finite count overflow in Karp–Miller");
        row[q] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Output, ProtocolBuilder};

    fn threshold2_protocol() -> Protocol {
        let mut b = ProtocolBuilder::new("x >= 2");
        let zero = b.add_state("0", Output::False);
        let one = b.add_state("1", Output::False);
        let two = b.add_state("2", Output::True);
        b.add_transition((one, one), (zero, two)).unwrap();
        b.add_transition((zero, two), (two, two)).unwrap();
        b.add_transition((one, two), (two, two)).unwrap();
        b.set_input_state("x", one);
        b.build().unwrap()
    }

    #[test]
    fn cover_is_complete_and_covers_reachable_slices() {
        let p = threshold2_protocol();
        let cover = karp_miller(&p, &SymbolicLimits::default());
        assert!(cover.complete);
        assert!(cover.labels >= 1);
        // Every configuration reachable on the slices i ≤ 6 is covered.
        use popproto_reach::{ExploreLimits, ReachabilityGraph};
        for i in 2..=6u64 {
            let g = ReachabilityGraph::explore(
                &p,
                &[p.initial_config_unary(i)],
                &ExploreLimits::default(),
            );
            for id in g.ids() {
                let counts: Vec<u64> = g.counts_of(id).iter().map(|&c| c as u64).collect();
                assert!(cover.covers_counts(&counts), "uncovered {counts:?}");
            }
        }
    }

    #[test]
    fn acceleration_reaches_omega_from_the_initial_ideal() {
        // From ⟨ω·q1⟩ the threshold protocol pumps every state: the cover is
        // the full ideal.
        let p = threshold2_protocol();
        let cover = karp_miller(&p, &SymbolicLimits::default());
        assert!(cover.covers_counts(&[1_000_000, 1_000_000, 1_000_000]));
    }

    #[test]
    fn label_cap_reports_incomplete() {
        let p = threshold2_protocol();
        let limits = SymbolicLimits {
            max_cover_labels: 1,
            ..SymbolicLimits::default()
        };
        let cover = karp_miller(&p, &limits);
        assert!(!cover.complete);
    }

    #[test]
    fn no_transition_protocol_covers_only_the_root() {
        let mut b = ProtocolBuilder::new("frozen");
        let s = b.add_state("s", Output::False);
        let t = b.add_state("t", Output::True);
        b.set_input_state("x", s);
        let _ = t;
        let p = b.build().unwrap();
        let cover = karp_miller(&p, &SymbolicLimits::default());
        assert!(cover.complete);
        assert_eq!(cover.labels, 1);
        assert!(cover.covers_counts(&[7, 0]));
        assert!(!cover.covers_counts(&[0, 1]));
    }

    #[test]
    fn the_initial_row_has_omega_on_every_input_state_and_the_leaders_elsewhere() {
        let mut b = ProtocolBuilder::new("two inputs, leaders");
        let x = b.add_state("x", Output::False);
        let y = b.add_state("y", Output::False);
        let l = b.add_state("l", Output::True);
        b.add_transition((x, y), (l, l)).unwrap();
        b.set_input_state("x", x);
        b.set_input_state("y", y);
        b.add_leader(l, 3);
        let mut candidate = FlatProtocol::default();
        candidate.load(&b.build().unwrap());
        let root: Vec<u32> = omega_initial_row(&candidate).collect();
        assert_eq!(root, [OMEGA, OMEGA, 3]);
    }
}
