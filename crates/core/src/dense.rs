//! Dense, autovectorization-friendly kernels for the cascade hot paths.
//!
//! The filter stages are memory-bandwidth-bound at scale (the paper's
//! pitch: `BDist` is a linear merge), so the kernels here are written for
//! straight-line slice traversal: the id-scan is split from the
//! count-accumulate, counts live in flat `u32` lanes, and the equal-run /
//! tail cases reduce with branch-free `min`/`abs_diff` arithmetic that the
//! compiler can autovectorize.

use crate::vocab::BranchId;

/// Sum of the counts of a sparse `(branch, count)` run — the tail term of
/// the L1 merge, consumed in one pass without re-slicing.
#[inline]
fn tail_mass(rest: &[(BranchId, u32)]) -> u64 {
    rest.iter().map(|&(_, count)| u64::from(count)).sum()
}

/// L1 distance of two sparse `(branch, count)` vectors sorted by branch id
/// — the `BDist` merge of Definition 4 as a slice kernel.
///
/// The merge advances by shrinking the two slices (`split_first`), so the
/// loop body performs no indexed accesses, and whichever slice survives the
/// merge is summed directly — the remainder is never re-sliced, removing
/// the double bounds check the indexed `entries[i..]` formulation paid.
pub fn bdist_merge(a: &[(BranchId, u32)], b: &[(BranchId, u32)]) -> u64 {
    let (mut a, mut b) = (a, b);
    let mut distance = 0u64;
    while let (Some((&(id_a, count_a), rest_a)), Some((&(id_b, count_b), rest_b))) =
        (a.split_first(), b.split_first())
    {
        match id_a.cmp(&id_b) {
            std::cmp::Ordering::Less => {
                distance += u64::from(count_a);
                a = rest_a;
            }
            std::cmp::Ordering::Greater => {
                distance += u64::from(count_b);
                b = rest_b;
            }
            std::cmp::Ordering::Equal => {
                distance += u64::from(count_a.abs_diff(count_b));
                a = rest_a;
                b = rest_b;
            }
        }
    }
    distance + tail_mass(a) + tail_mass(b)
}

/// L1 distance of two structure-of-arrays sparse vectors: parallel
/// `branch_ids`/`counts` slices sorted by branch id. Same merge as
/// [`bdist_merge`] over the CSR layout [`crate::arena::VectorArena`] and
/// [`crate::PositionalVector`] store.
pub fn bdist_soa(
    a_ids: &[BranchId],
    a_counts: &[u32],
    b_ids: &[BranchId],
    b_counts: &[u32],
) -> u64 {
    debug_assert_eq!(a_ids.len(), a_counts.len());
    debug_assert_eq!(b_ids.len(), b_counts.len());
    let mut a = a_ids.iter().zip(a_counts).peekable();
    let mut b = b_ids.iter().zip(b_counts).peekable();
    let mut distance = 0u64;
    while let (Some(&(&id_a, &count_a)), Some(&(&id_b, &count_b))) = (a.peek(), b.peek()) {
        match id_a.cmp(&id_b) {
            std::cmp::Ordering::Less => {
                distance += u64::from(count_a);
                a.next();
            }
            std::cmp::Ordering::Greater => {
                distance += u64::from(count_b);
                b.next();
            }
            std::cmp::Ordering::Equal => {
                distance += u64::from(count_a.abs_diff(count_b));
                a.next();
                b.next();
            }
        }
    }
    distance += a.map(|(_, &count)| u64::from(count)).sum::<u64>();
    distance += b.map(|(_, &count)| u64::from(count)).sum::<u64>();
    distance
}

/// Shared branch mass `Σ min(lookup[id], count)` of one tree's arena slice
/// against a dense query lookup table.
///
/// Out-of-table ids (a query table only spans the dataset vocabulary)
/// contribute zero, matching the sparse merge's treatment of unshared
/// branches. The loop body is a gather + `min` + widen + add with no
/// per-element branches, which is exactly the shape autovectorizers handle.
pub fn shared_mass_lookup(lookup: &[u32], ids: &[BranchId], counts: &[u32]) -> u64 {
    debug_assert_eq!(ids.len(), counts.len());
    ids.iter()
        .zip(counts)
        .map(|(&id, &count)| {
            let query = lookup.get(id.index()).copied().unwrap_or(0);
            u64::from(query.min(count))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<BranchId> {
        raw.iter().map(|&r| BranchId(r)).collect()
    }

    #[test]
    fn bdist_merge_matches_soa_on_disjoint_and_overlapping_runs() {
        let a_ids = ids(&[0, 2, 5, 9]);
        let a_counts = [3u32, 1, 4, 2];
        let b_ids = ids(&[1, 2, 5, 7, 11]);
        let b_counts = [2u32, 1, 1, 6, 1];
        let a_pairs: Vec<(BranchId, u32)> = a_ids
            .iter()
            .copied()
            .zip(a_counts.iter().copied())
            .collect();
        let b_pairs: Vec<(BranchId, u32)> = b_ids
            .iter()
            .copied()
            .zip(b_counts.iter().copied())
            .collect();
        // 3 + 2 + |1-1| + |4-1| + 6 + 2 + 1 = 17
        assert_eq!(bdist_merge(&a_pairs, &b_pairs), 17);
        assert_eq!(bdist_merge(&b_pairs, &a_pairs), 17);
        assert_eq!(bdist_soa(&a_ids, &a_counts, &b_ids, &b_counts), 17);
        assert_eq!(bdist_soa(&b_ids, &b_counts, &a_ids, &a_counts), 17);
        assert_eq!(bdist_merge(&a_pairs, &[]), 10);
        assert_eq!(bdist_merge(&[], &[]), 0);
        assert_eq!(bdist_soa(&[], &[], &b_ids, &b_counts), 11);
    }

    #[test]
    fn shared_mass_sums_minima_and_ignores_out_of_table_ids() {
        let lookup = [3u32, 0, 2, 5];
        // min(3,1) + min(2,4) + min(5,5) + (id 9 is out of table) = 8
        assert_eq!(
            shared_mass_lookup(&lookup, &ids(&[0, 2, 3, 9]), &[1, 4, 5, 7]),
            8
        );
        assert_eq!(shared_mass_lookup(&lookup, &ids(&[1]), &[6]), 0);
        assert_eq!(shared_mass_lookup(&lookup, &[], &[]), 0);
    }
}
