//! Per-snapshot **domain dictionary**: the active domain of a
//! [`Structure`], interned into dense codes `[0, n)`.
//!
//! The dictionary assigns code `c` to the `c`-th smallest active element,
//! so encoding is canonical (two structures with the same relations get
//! the same codes regardless of how they were built) and **monotone**:
//! `a < b ⇔ encode(a) < encode(b)`. Monotonicity is load-bearing — the
//! columnar kernels keep relations in canonical sorted-dedup form, and a
//! monotone encoding means the canonical form in code space decodes to
//! exactly the canonical form in element space, row for row.
//!
//! Downstream, the dense code width travels with every materialized
//! `FlatRelation`, letting single-column join keys use a direct-addressed
//! (offset/count) index instead of a hash table.
//!
//! Like [`crate::index::StructureIndex`], the dictionary is derived data:
//! built lazily on first use, shared by clones, ignored by equality,
//! hashing, and serialization. Relations are immutable after
//! construction, so it never goes stale.

use crate::structure::{Element, Structure};
use std::sync::Arc;
use std::sync::OnceLock;

/// Sentinel in the reverse map for elements outside the active domain.
pub const NO_CODE: u32 = u32::MAX;

/// The interned active domain of one structure snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainDict {
    /// `elems[c]` is the element with code `c` (ascending, deduplicated).
    elems: Vec<Element>,
    /// `codes[e]` is the code of element `e`, or [`NO_CODE`] when `e` is
    /// not active. Length = universe size.
    codes: Vec<u32>,
    /// `true` when `encode` is the identity on active elements: a
    /// universe that *is* the active domain, or only has trailing
    /// isolated elements. Any isolated element below an active one
    /// breaks it, which random graphs often have.
    identity: bool,
}

impl DomainDict {
    /// Builds the dictionary of a structure's active domain.
    pub fn build(s: &Structure) -> Self {
        let elems: Vec<Element> = s.active_domain().into_iter().collect();
        let mut codes = vec![NO_CODE; s.universe_size()];
        let mut identity = true;
        for (c, &e) in elems.iter().enumerate() {
            codes[e as usize] = c as u32;
            identity &= c as Element == e;
        }
        DomainDict {
            elems,
            codes,
            identity,
        }
    }

    /// Number of active elements = number of codes = the dense width.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// `true` when the active domain is empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// `true` when `encode` is the identity on every active element.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// The dense code of an active element.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds via the `NO_CODE` sentinel reaching a
    /// caller) only if `e` is not active; callers encode elements read
    /// from relation tuples, which are active by definition.
    #[inline]
    pub fn encode(&self, e: Element) -> u32 {
        self.codes[e as usize]
    }

    /// The element behind a code.
    #[inline]
    pub fn decode(&self, c: u32) -> Element {
        self.elems[c as usize]
    }

    /// Heap bytes held by the dictionary (for cache accounting).
    pub fn heap_bytes(&self) -> usize {
        self.elems.capacity() * std::mem::size_of::<Element>()
            + self.codes.capacity() * std::mem::size_of::<u32>()
    }
}

/// The lazily-initialized, clone-shared dictionary slot embedded in
/// [`Structure`]. Mirrors [`crate::index::IndexCell`]: derived data,
/// invisible to equality/hash/serde.
#[derive(Debug, Default)]
pub(crate) struct DictCell(pub(crate) OnceLock<Arc<DomainDict>>);

impl Clone for DictCell {
    fn clone(&self) -> Self {
        DictCell(self.0.clone())
    }
}

impl PartialEq for DictCell {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for DictCell {}

impl std::hash::Hash for DictCell {
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_universe_is_identity() {
        let s = Structure::digraph(3, &[(0, 1), (1, 2), (2, 0)]);
        let d = s.domain_dict();
        assert!(d.is_identity());
        assert_eq!(d.len(), 3);
        for e in 0..3 {
            assert_eq!(d.encode(e), e);
            assert_eq!(d.decode(e), e);
        }
    }

    #[test]
    fn trailing_isolated_elements_stay_identity() {
        // Node 3 is isolated but all active elements keep their value.
        let s = Structure::digraph(4, &[(0, 1), (1, 2)]);
        let d = s.domain_dict();
        assert!(d.is_identity());
        assert_eq!(d.len(), 3);
        assert_eq!(d.encode(2), 2);
    }

    #[test]
    fn gaps_compact_and_stay_monotone() {
        // Node 1 is isolated: adom = {0, 2, 4}.
        let s = Structure::digraph(5, &[(0, 2), (2, 4)]);
        let d = s.domain_dict();
        assert!(!d.is_identity());
        assert_eq!(d.len(), 3);
        assert_eq!(d.encode(0), 0);
        assert_eq!(d.encode(2), 1);
        assert_eq!(d.encode(4), 2);
        assert_eq!(d.decode(1), 2);
        assert_eq!(d.codes[1], NO_CODE);
        // Monotone: order of codes equals order of elements.
        assert!(d.encode(0) < d.encode(2) && d.encode(2) < d.encode(4));
    }

    #[test]
    fn shared_by_clones() {
        let s = Structure::digraph(3, &[(0, 1)]);
        let before = s.domain_dict() as *const DomainDict;
        let t = s.clone();
        assert_eq!(t.domain_dict() as *const DomainDict, before);
    }

    #[test]
    fn empty_structure() {
        let s = Structure::digraph(2, &[]);
        let d = s.domain_dict();
        assert!(d.is_empty());
        assert!(d.is_identity());
    }
}
