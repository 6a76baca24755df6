//! Flat clause storage for the CDCL solver.
//!
//! Every clause lives in one `Vec<Lit>`: a header word, the literals, and,
//! for a learnt clause, its activity in two trailing words:
//!
//! ```text
//! [ len << 2 | deleted << 1 | learnt ][ lit_0 ] ... [ lit_len-1 ]( [ act_lo ][ act_hi ] )
//! ```
//!
//! Header and activity words carry their bits in the [`Lit`] payload, so a
//! clause's literals are a plain `&[Lit]` slice of the arena. A
//! [`ClauseRef`] is the offset of the header. Deleting a clause only sets its
//! flag; the words stay in place as garbage until [`ClauseArena::compact`]
//! slides the live clauses down and returns the [`Relocation`] that renumbers
//! every outstanding reference. Clauses keep their arena order through
//! compaction, which is their order of creation.

use crate::lit::Lit;

/// Offset of a clause's header word in the [`ClauseArena`].
pub(crate) type ClauseRef = u32;

const LEARNT: u32 = 1;
const DELETED: u32 = 2;
const LEN_SHIFT: u32 = 2;

/// The solver's clause database; see the module docs for the layout.
#[derive(Debug, Default)]
pub(crate) struct ClauseArena {
    words: Vec<Lit>,
    /// Words held by deleted clauses.
    wasted: usize,
}

impl ClauseArena {
    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.words[cref as usize].0
    }

    /// Appends a clause and returns its reference.
    ///
    /// # Panics
    ///
    /// When the clause's length or end would not fit the 32-bit header or
    /// offset.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        let cref = self.words.len();
        let end = cref + 1 + lits.len() + if learnt { 2 } else { 0 };
        assert!(
            lits.len() < 1 << (32 - LEN_SHIFT) && u32::try_from(end).is_ok(),
            "clause arena exceeds its 32-bit offsets"
        );
        self.words.push(Lit(
            (lits.len() as u32) << LEN_SHIFT | if learnt { LEARNT } else { 0 }
        ));
        self.words.extend_from_slice(lits);
        if learnt {
            self.words.extend_from_slice(&[Lit(0), Lit(0)]);
        }
        cref as ClauseRef
    }

    /// Number of literals of `cref`.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        (self.header(cref) >> LEN_SHIFT) as usize
    }

    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT != 0
    }

    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.header(cref) & DELETED != 0
    }

    /// Words the clause at `cref` occupies, header and activity included.
    #[inline]
    fn block_len(&self, cref: ClauseRef) -> usize {
        let h = self.header(cref);
        1 + (h >> LEN_SHIFT) as usize + 2 * (h & LEARNT) as usize
    }

    /// The literals of `cref`, in their current (watch) order.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let start = cref as usize + 1;
        &self.words[start..start + self.len(cref)]
    }

    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let start = cref as usize + 1;
        let len = self.len(cref);
        &mut self.words[start..start + len]
    }

    /// Index of the first activity word of the learnt clause `cref`.
    #[inline]
    fn activity_at(&self, cref: ClauseRef) -> usize {
        debug_assert!(self.is_learnt(cref));
        cref as usize + 1 + self.len(cref)
    }

    /// Activity of the learnt clause `cref`.
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f64 {
        let at = self.activity_at(cref);
        f64::from_bits(u64::from(self.words[at].0) | u64::from(self.words[at + 1].0) << 32)
    }

    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, activity: f64) {
        let at = self.activity_at(cref);
        let bits = activity.to_bits();
        self.words[at] = Lit(bits as u32);
        self.words[at + 1] = Lit((bits >> 32) as u32);
    }

    /// Multiplies the activity of every learnt clause by `factor`.
    pub fn scale_activities(&mut self, factor: f64) {
        let mut at = 0usize;
        while at < self.words.len() {
            let cref = at as ClauseRef;
            if self.is_learnt(cref) {
                self.set_activity(cref, self.activity(cref) * factor);
            }
            at += self.block_len(cref);
        }
    }

    /// Marks `cref` deleted; its words become garbage.
    pub fn free(&mut self, cref: ClauseRef) {
        debug_assert!(!self.is_deleted(cref));
        self.words[cref as usize].0 |= DELETED;
        self.wasted += self.block_len(cref);
    }

    /// Every clause, deleted ones included, in arena order.
    pub fn iter(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut at = 0usize;
        std::iter::from_fn(move || {
            (at < self.words.len()).then(|| {
                let cref = at as ClauseRef;
                at += self.block_len(cref);
                cref
            })
        })
    }

    /// `true` once deleted clauses hold half the arena.
    pub fn needs_compaction(&self) -> bool {
        self.wasted * 2 >= self.words.len()
    }

    /// Words in use, garbage included.
    #[cfg(test)]
    pub fn size(&self) -> usize {
        self.words.len()
    }

    /// Drops the deleted clauses, sliding every live clause down in place.
    /// The storage shrinks to the live words plus half again, so the next
    /// growth does not start from a full buffer and a freed half is not
    /// held across the rest of the solve. Every [`ClauseRef`] held outside
    /// the arena must be passed through the returned [`Relocation`].
    pub fn compact(&mut self) -> Relocation {
        let mut runs: Vec<(ClauseRef, u32)> = Vec::new();
        let mut shift = 0usize;
        let mut prev_deleted = false;
        let mut at = 0usize;
        while at < self.words.len() {
            let cref = at as ClauseRef;
            let block = self.block_len(cref);
            if self.is_deleted(cref) {
                shift += block;
                match runs.last_mut() {
                    Some(run) if prev_deleted => run.1 = shift as u32,
                    _ => runs.push((cref, shift as u32)),
                }
                prev_deleted = true;
            } else {
                if shift > 0 {
                    self.words.copy_within(at..at + block, at - shift);
                }
                prev_deleted = false;
            }
            at += block;
        }
        let live = self.words.len() - shift;
        self.words.truncate(live);
        self.words.shrink_to(live + live / 2);
        self.wasted = 0;
        Relocation { runs }
    }
}

/// Maps the references of live clauses from before a
/// [`ClauseArena::compact`] to after it.
#[derive(Debug)]
pub(crate) struct Relocation {
    /// Per run of consecutive deleted clauses: its first offset and the
    /// garbage words up to its end.
    runs: Vec<(ClauseRef, u32)>,
}

impl Relocation {
    /// The new reference of the live clause that was at `cref`.
    #[inline]
    pub fn apply(&self, cref: ClauseRef) -> ClauseRef {
        match self.runs.partition_point(|&(start, _)| start < cref) {
            0 => cref,
            i => cref - self.runs[i - 1].1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(vars: &[usize]) -> Vec<Lit> {
        vars.iter()
            .map(|&v| Var::from_index(v).positive())
            .collect()
    }

    #[test]
    fn layout_round_trips_lits_flags_and_activity() {
        let mut a = ClauseArena::default();
        let c0 = a.alloc(&lits(&[0, 1, 2]), false);
        let c1 = a.alloc(&lits(&[3, 4]), true);
        assert_eq!((c0, c1), (0, 4));
        assert_eq!(a.lits(c0), lits(&[0, 1, 2]).as_slice());
        assert_eq!(a.lits(c1), lits(&[3, 4]).as_slice());
        assert!(!a.is_learnt(c0) && a.is_learnt(c1));
        a.set_activity(c1, 1e-300 * 3.5);
        assert_eq!(a.activity(c1), 1e-300 * 3.5);
        a.lits_mut(c1).swap(0, 1);
        assert_eq!(a.lits(c1), lits(&[4, 3]).as_slice());
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![c0, c1]);
        assert_eq!(a.size(), 4 + 5);
    }

    #[test]
    fn compaction_slides_live_clauses_and_relocates_references() {
        let mut a = ClauseArena::default();
        let crefs: Vec<ClauseRef> = (0..8)
            .map(|i| a.alloc(&lits(&[i, i + 1, i + 2]), i % 3 == 0))
            .collect();
        for (i, &c) in crefs.iter().enumerate() {
            if a.is_learnt(c) {
                a.set_activity(c, i as f64);
            }
        }
        // Delete a leading clause, a run of two, and the last one.
        for i in [0, 2, 3, 7] {
            a.free(crefs[i]);
        }
        assert!(a.needs_compaction());
        let reloc = a.compact();
        let live: Vec<ClauseRef> = a.iter().collect();
        let kept = [1usize, 4, 5, 6];
        assert_eq!(live.len(), kept.len());
        for (&i, &now) in kept.iter().zip(&live) {
            assert_eq!(reloc.apply(crefs[i]), now, "clause {i}");
            assert_eq!(a.lits(now), lits(&[i, i + 1, i + 2]).as_slice());
            assert!(!a.is_deleted(now));
            if a.is_learnt(now) {
                assert_eq!(a.activity(now), i as f64);
            }
        }
        assert!(!a.needs_compaction());
    }
}
