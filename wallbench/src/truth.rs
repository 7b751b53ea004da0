//! Answer checking: brute-force ground truth over a flat point table, and
//! the per-rank comparison every k-NN answer must pass.

use iq_geometry::{Dataset, Metric};
use std::collections::HashMap;

const METRIC: Metric = Metric::Euclidean;

/// Relative slack for comparing distances: the index and the brute force
/// compute the same f64 expression, so any real error is far larger.
const TOL: f64 = 1e-9;

/// The live point set: ids with their coordinates, in a flat table that
/// supports O(1) insert and delete (swap-remove) for the shadow of an
/// updated index.
pub struct Live {
    dim: usize,
    flat: Vec<f32>,
    ids: Vec<u32>,
    pos: HashMap<u32, usize>,
}

impl Live {
    /// The points of `ds`, with ids equal to their row numbers (the ids
    /// `IqTree::build` assigns).
    pub fn from_dataset(ds: &Dataset) -> Self {
        let n = u32::try_from(ds.len()).expect("point count fits u32");
        Self {
            dim: ds.dim(),
            flat: ds.as_flat().to_vec(),
            ids: (0..n).collect(),
            pos: (0..n).map(|i| (i, i as usize)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn insert(&mut self, id: u32, p: &[f32]) {
        let old = self.pos.insert(id, self.ids.len());
        assert!(old.is_none(), "id {id} inserted twice");
        self.ids.push(id);
        self.flat.extend_from_slice(p);
    }

    /// The id at table position `i` (for drawing a random live point).
    pub fn id_at(&self, i: usize) -> u32 {
        self.ids[i]
    }

    pub fn point(&self, id: u32) -> Option<&[f32]> {
        let i = *self.pos.get(&id)?;
        Some(&self.flat[i * self.dim..(i + 1) * self.dim])
    }

    pub fn remove(&mut self, id: u32) {
        let i = self.pos.remove(&id).expect("removed id is live");
        let last = self.ids.len() - 1;
        self.ids.swap_remove(i);
        for d in 0..self.dim {
            self.flat.swap(i * self.dim + d, last * self.dim + d);
        }
        self.flat.truncate(last * self.dim);
        if i < last {
            self.pos.insert(self.ids[i], i);
        }
    }

    /// The exact `k` nearest neighbors of `q` as `(id, distance)`,
    /// ascending by distance, ties by id.
    pub fn knn(&self, q: &[f32], k: usize) -> Vec<(u32, f64)> {
        let mut best: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
        for (p, &id) in self.flat.chunks_exact(self.dim).zip(&self.ids) {
            let key = METRIC.distance_key(q, p);
            if best.len() == k && key > best[k - 1].0 {
                continue;
            }
            let at = best.partition_point(|&(b, bid)| (b, bid) < (key, id));
            best.insert(at, (key, id));
            best.truncate(k);
        }
        best.into_iter()
            .map(|(key, id)| (id, METRIC.key_to_distance(key)))
            .collect()
    }

    /// Ground truth for many queries, split over `threads` threads.
    pub fn knn_many(&self, queries: &[Vec<f32>], k: usize, threads: usize) -> Vec<Vec<(u32, f64)>> {
        let chunk = queries.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|qs| s.spawn(move || qs.iter().map(|q| self.knn(q, k)).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("ground-truth thread panicked"))
                .collect()
        })
    }

    /// Whether `got` is a correct k-NN answer for `q` given the exact
    /// answer `truth`: the same distance at every rank, distinct live ids,
    /// and each id really at its reported distance. Ids may differ from
    /// `truth` only where distances tie.
    pub fn answer_ok(&self, q: &[f32], got: &[(u32, f64)], truth: &[(u32, f64)]) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= TOL * a.abs().max(1.0);
        if got.len() != truth.len() {
            return false;
        }
        let mut seen = std::collections::HashSet::with_capacity(got.len());
        got.iter().zip(truth).all(|(&(id, d), &(_, td))| {
            close(d, td)
                && seen.insert(id)
                && self
                    .point(id)
                    .is_some_and(|p| close(METRIC.distance(q, p), d))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_updates_match_a_rebuilt_set() {
        let ds = Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let mut live = Live::from_dataset(&ds);
        live.remove(0);
        live.insert(7, &[0.1, 0.1]);
        live.remove(3);
        assert_eq!(live.len(), 3);
        assert_eq!(live.point(7), Some(&[0.1f32, 0.1][..]));
        assert_eq!(live.point(0), None);
        let got = live.knn(&[0.0, 0.0], 2);
        assert_eq!(got[0].0, 7);
        // Ids 1 and 2 tie at distance 1: either is a correct second answer.
        let tie = vec![(7, got[0].1), (if got[1].0 == 1 { 2 } else { 1 }, 1.0)];
        assert!(live.answer_ok(&[0.0, 0.0], &tie, &got));
        let wrong = vec![(7, got[0].1), (3, 1.0)];
        assert!(!live.answer_ok(&[0.0, 0.0], &wrong, &got), "deleted id");
    }
}
