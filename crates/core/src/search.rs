//! Query processing: nearest-neighbor / k-NN search with the
//! time-optimized page-access strategy (Sections 2.1, 2.2, 3.2) and range
//! queries with optimal batch fetching (Section 2).
//!
//! The priority list holds two kinds of entries (Section 3.2): quantized
//! data pages (keyed by their MBR's MINDIST) and *point approximations* —
//! the grid-cell boxes of individual points, inserted when their page is
//! processed. A point's exact coordinates are read if and only if its box
//! becomes the pivot of the list, which the paper proves unavoidable.
//!
//! When the pivot is a page and scheduled I/O is enabled, the cumulated-
//! cost-balance algorithm of Section 2.1 extends the read around the pivot
//! in both disk directions: a neighboring page with access probability `a`
//! contributes `t_xfer − a·(t_seek + t_xfer)` to the balance; sequences
//! with negative balance are over-read in the same sweep; the search in
//! either direction stops once the balance exceeds `t_seek`.

use crate::{IqTree, PageMeta};
use iq_cost::access_prob::access_probability;
use iq_engine::{
    drive, knn_each_traced, query_span_begin, query_span_end, AccessMethod, CandidateHeap,
    Executor, Filter, OrdKey, PageSpec, QueryOptions, QueryTrace, TracedResult,
};
use iq_obs::{CostPrediction, Phase};
use iq_quantize::{
    CellMatch, DistTable, DistTableBlock, QuantPageView, WindowTable, EXACT_BITS, MAX_BLOCK_QUERIES,
};
use iq_storage::{fetch, read_to_vec_retry, SimClock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Folds one entry's MAXDIST key into a query's running bound δ: the
/// bounded max-heap holds the `k` smallest MAXDIST keys seen so far, whose
/// maximum is a certified upper bound on the true k-th-NN key (at least
/// `k` entries are guaranteed no farther than it).
fn note_bound(heap: &mut BinaryHeap<OrdKey>, delta: &mut f64, k: usize, hi: f64) {
    if hi.is_nan() {
        return;
    }
    if heap.len() < k {
        heap.push(OrdKey(hi));
        if heap.len() == k {
            *delta = heap.peek().expect("heap holds k entries").0;
        }
    } else if hi < *delta {
        heap.pop();
        heap.push(OrdKey(hi));
        *delta = heap.peek().expect("heap holds k entries").0;
    }
}

/// Records the outcome of a level-3 fallback
/// ([`IqTree::visit_exact_region`]) in one query's trace: the page was
/// answered from its exact region, minus the entries that did not decode,
/// or it was lost.
fn note_fallback(trace: &mut QueryTrace, skipped: Option<u64>) {
    match skipped {
        Some(n) => {
            trace.quant_fallbacks += 1;
            trace.pages_processed += 1;
            trace.points_skipped += n;
        }
        None => trace.pages_lost += 1,
    }
}

/// Heap entry target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Item {
    /// A quantized data page (by index).
    Page(u32),
    /// A point approximation: `(page, slot, id)` — refined when popped.
    Point(u32, u32, u32),
}

/// Per-query working state that is specific to the IQ-tree producer: the
/// page priority structure and decode scratch. The shared pieces — the
/// top-k, the pruning bound, the knob budgets and the trace — live in the
/// engine-layer [`Executor`], which is threaded alongside.
struct SearchState<'f> {
    /// The query point.
    q: &'f [f32],
    /// Pushed-down attribute filter: non-matching points never enter the
    /// result set or the priority list, so the pruning bound (and with it
    /// MINDIST page pruning) derives only from matching points.
    filter: Option<&'f Filter>,
    /// MINDIST key of every page.
    page_key: Vec<f64>,
    /// Page indices sorted by ascending MINDIST key (priority order).
    order: Vec<u32>,
    /// Rank of each page in `order` (pages before it are its
    /// higher-priority competitors).
    rank: Vec<u32>,
    /// Pages already loaded and processed (or scheduled away).
    processed: Vec<bool>,
    /// Reusable cell-number scratch for the streaming page decoder.
    cells: Vec<u32>,
    /// Reusable coordinate scratch for exact (g = 32) pages.
    coords: Vec<f32>,
    /// Reusable per-(query, page-grid) distance-contribution table.
    table: DistTable,
    /// Reusable per-page MINDIST-key scratch for the batch fold kernel.
    keys: Vec<f64>,
}

/// The IQ-tree's queries: callable through `&dyn AccessMethod` alongside
/// the scan, VA-file and X-tree baselines, and the only way to query it.
impl AccessMethod for IqTree {
    fn name(&self) -> &'static str {
        "iqtree"
    }

    fn dim(&self) -> usize {
        IqTree::dim(self)
    }

    fn len(&self) -> usize {
        IqTree::len(self)
    }

    fn metric(&self) -> iq_geometry::Metric {
        IqTree::metric(self)
    }

    /// The IQ-tree's one k-NN search. A pushed-down `filter` drops
    /// non-matching points at page-decode time (level 2), so they never
    /// enter the priority list and are never refined, and `k` counts
    /// post-filter results.
    ///
    /// The IQ-tree is a *producer* into the engine-layer [`drive`] loop:
    /// pages and point approximations enter the shared candidate heap, the
    /// executor owns pruning and every approximation knob. Under `opts`,
    /// `nprobes` caps the number of quantized data pages decoded and
    /// `refine_factor` caps exact-point look-ups at `k × refine_factor`.
    ///
    /// The [`QueryTrace`] counts what the search did: `runs` are the
    /// sweeps over the quantized file (one per scheduled run of pages,
    /// Section 2.1, or one per page without scheduled I/O),
    /// `pages_processed` the level-2 pages decoded, `pages_skipped` the
    /// pages loaded as run filler but pruned, `approx_enqueued` the point
    /// approximations entering the priority list and `refinements` the
    /// exact-point reads at level 3; `quant_fallbacks`, `pages_lost` and
    /// `points_skipped` record how corrupt blocks degraded the search.
    fn knn_opts_traced(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        k: usize,
        filter: Option<&Filter>,
        opts: &QueryOptions,
    ) -> (Vec<(u32, f64)>, QueryTrace) {
        assert_eq!(q.len(), self.dim(), "query dimensionality mismatch");
        if k == 0 || self.is_empty() || filter.is_some_and(|f| f.matching() == 0) {
            return (Vec::new(), QueryTrace::default());
        }
        // Partial refinement (`refine_factor >= 2`): the quantized phase
        // ranks candidates by their cell lower bound alone — no per-pivot
        // exact reads — and the best `k × refine_factor` are then refined
        // in one block-scheduled batch and reranked. One planned sweep
        // over co-located exact entries replaces up to `k` random seeks.
        let partial = opts.refine_factor >= 2;
        let budget = if partial {
            k.saturating_mul(opts.refine_factor as usize)
        } else {
            k
        };
        query_span_begin(clock, "iqtree", k, filter, opts);
        let mut exec = Executor::new(self.metric(), budget, opts, clock);
        let mut deferred: HashMap<u32, (u32, u32)> = HashMap::new();
        clock.phase_begin(Phase::Directory);
        self.charge_directory_scan(clock);

        clock.phase_begin(Phase::Plan);
        let metric = self.metric();
        let n_pages = self.pages().len();
        let mut st = SearchState {
            q,
            filter,
            page_key: Vec::with_capacity(n_pages),
            order: Vec::new(),
            rank: Vec::new(),
            processed: vec![false; n_pages],
            cells: Vec::new(),
            coords: Vec::new(),
            table: DistTable::new(),
            keys: Vec::new(),
        };
        let mut heap: CandidateHeap<Item> = CandidateHeap::with_capacity(n_pages);
        for (i, meta) in self.pages().iter().enumerate() {
            let key = if meta.count == 0 {
                f64::INFINITY
            } else {
                metric.mindist_key(q, &meta.mbr)
            };
            st.page_key.push(key);
            if key.is_finite() {
                heap.push(Reverse((OrdKey(key), Item::Page(i as u32))));
            } else {
                st.processed[i] = true;
            }
        }
        // Priority order for the access-probability prefix walks.
        let mut order: Vec<u32> = (0..n_pages as u32).collect();
        order.sort_by(|&a, &b| {
            st.page_key[a as usize]
                .partial_cmp(&st.page_key[b as usize])
                .expect("keys are never NaN")
        });
        let mut rank = vec![0u32; n_pages];
        for (pos, &i) in order.iter().enumerate() {
            rank[i as usize] = pos as u32;
        }
        st.order = order;
        st.rank = rank;

        drive(
            &mut exec,
            clock,
            &mut heap,
            |exec, clock, key, item, heap| {
                match item {
                    Item::Page(p) => {
                        let p = p as usize;
                        if st.processed[p] {
                            return;
                        }
                        if exec.probes_exhausted() {
                            // `nprobes` spent: the page is scheduled away before
                            // any I/O is charged for it.
                            st.processed[p] = true;
                            exec.skip_candidates(1);
                            return;
                        }
                        if self.options().scheduled_io {
                            self.process_page_run(clock, p, &mut st, exec, heap);
                        } else {
                            self.process_single_page(clock, p, &mut st, exec, heap);
                        }
                    }
                    Item::Point(page, slot, id) => {
                        if partial {
                            // Rank by the quantized lower bound now; the exact
                            // read happens later, in one batched sweep.
                            clock.phase_begin(Phase::TopK);
                            deferred.insert(id, (page, slot));
                            exec.offer(key, id);
                            return;
                        }
                        // Refinement: unavoidable once the approximation is the
                        // pivot (Section 3.2). An entry that stays unreadable
                        // after retries is skipped (and counted): the query
                        // completes on the remaining points.
                        clock.phase_begin(Phase::Refine);
                        exec.refine_with(clock, id, |clock| {
                            self.try_read_exact_point(clock, page as usize, slot as usize)
                                .ok()
                                .map(|coords| {
                                    clock.charge_dist_evals(self.dim(), 1);
                                    metric.distance_key(&coords, q)
                                })
                        });
                    }
                }
            },
        );

        clock.phase_begin(Phase::TopK);
        let (results, mut trace) = exec.into_results(metric);
        if !partial {
            clock.phase_end();
            query_span_end(clock, &trace);
            return (results, trace);
        }

        // Rerank: provisional results from exact pages already carry true
        // distances; lower-bound-ranked candidates are refined in one
        // planned batch over the exact file (candidates that stay
        // unreadable after retries are skipped, as in the pivot path).
        clock.phase_begin(Phase::Refine);
        let mut batch: Vec<(usize, usize, u32)> = Vec::new();
        let mut rerank: Vec<(u32, f64)> = Vec::new();
        for (id, dist) in results {
            match deferred.get(&id) {
                Some(&(page, slot)) => batch.push((page as usize, slot as usize, id)),
                None => rerank.push((id, dist)),
            }
        }
        let before = rerank.len();
        self.refine_batch_with(clock, &batch, |id, coords| {
            rerank.push((id, metric.key_to_distance(metric.distance_key(coords, q))));
        });
        let refined = (rerank.len() - before) as u64;
        trace.refinements += refined;
        trace.points_skipped += batch.len() as u64 - refined;
        clock.phase_begin(Phase::TopK);
        let rerank = PageSpec::top(k).slice(rerank);
        clock.phase_end();
        query_span_end(clock, &trace);
        (rerank, trace)
    }

    /// Micro-batches route into the shared multi-query page walk — each
    /// level-2 page is read and decoded once for the whole batch — when
    /// the search is exact and the batch fits the block-table lane budget.
    /// Approximate searches (the knobs are per-query semantics a shared
    /// walk cannot honor) and degenerate batches take the per-query path.
    fn knn_multi_opts_traced(
        &self,
        clock: &mut SimClock,
        queries: &[&[f32]],
        k: usize,
        filter: Option<&Filter>,
        opts: &QueryOptions,
    ) -> Vec<TracedResult> {
        if opts.is_exact() && queries.len() > 1 && queries.len() <= MAX_BLOCK_QUERIES {
            return self.knn_multi_traced_impl(clock, queries, k, filter);
        }
        knn_each_traced(self, clock, queries, k, filter, opts)
    }

    /// All points within `radius` of `q` (unordered ids).
    ///
    /// The set of candidate pages is known up front, so the optimal batch
    /// fetch of Section 2 (Figure 1) loads them with the minimal
    /// seek/over-read schedule. Points whose cell box lies entirely within
    /// the radius are accepted without refinement.
    fn range(&self, clock: &mut SimClock, q: &[f32], radius: f64) -> Vec<u32> {
        assert_eq!(q.len(), self.dim(), "query dimensionality mismatch");
        let metric = self.metric();
        let key_r = metric.distance_to_key(radius);
        let mut table = DistTable::new();
        let mut lo_keys: Vec<f64> = Vec::new();
        let mut hi_keys: Vec<f64> = Vec::new();
        self.planned_query(
            clock,
            |meta| metric.mindist_key(q, &meta.mbr) <= key_r,
            |coords| metric.distance_key(coords, q) <= key_r,
            |meta, view, cells, matches| {
                table.build(&meta.mbr, view.bits(), metric, q, view.len());
                // Batch fold: MINDIST and MAXDIST keys for the whole page
                // in one SIMD pass. Both comparisons stay in the key
                // domain, so a box accepted without refinement satisfies
                // the same `distance_key <= key_r` predicate refinement
                // would have checked.
                table.bounds_keys(cells, &mut lo_keys, &mut hi_keys);
                matches.clear();
                matches.extend(lo_keys.iter().zip(&hi_keys).map(|(&lo, &hi)| {
                    match (lo <= key_r, hi <= key_r) {
                        (false, _) => CellMatch::Disjoint,
                        (true, true) => CellMatch::Inside,
                        (true, false) => CellMatch::Partial,
                    }
                }));
            },
        )
    }

    /// All points inside the query window (unordered ids) — the paper's
    /// Section 2 case where the page set is known in advance: candidate
    /// pages are exactly those whose MBR intersects the window, loaded with
    /// the optimal batch-fetch schedule of Figure 1. A point is refined
    /// only when its cell box straddles the window boundary.
    ///
    /// # Panics
    /// Panics if the window's dimensionality mismatches.
    fn window(&self, clock: &mut SimClock, window: &iq_geometry::Mbr) -> Vec<u32> {
        assert_eq!(window.dim(), self.dim(), "window dimensionality mismatch");
        let mut wtable = WindowTable::new();
        let mut flags: Vec<u8> = Vec::new();
        self.planned_query(
            clock,
            |meta| meta.mbr.intersects(window),
            |coords| window.contains_point(coords),
            |meta, view, cells, matches| {
                wtable.build(&meta.mbr, view.bits(), window, view.len());
                // Whole-page classification through the SIMD flag-AND
                // kernel — bit-identical to per-entry `classify`.
                wtable.classify_batch(cells, &mut flags, matches);
            },
        )
    }

    /// The trait has no disk handle, so the prediction prices I/O on the
    /// default [`iq_storage::DiskModel`] — the model every [`SimClock`] in
    /// the workspace defaults to. Callers with a custom disk should use
    /// [`IqTree::predict_knn_cost_opts`] directly.
    fn cost_prediction(&self, k: usize, opts: &QueryOptions) -> Option<CostPrediction> {
        Some(self.predict_knn_cost_opts(&iq_storage::DiskModel::default(), k, opts))
    }
}

impl IqTree {
    /// Loads exactly one page (the "standard NN search" ablation, and the
    /// degraded path when a sweep fails). Each page read consumes one unit
    /// of the `nprobes` budget; once spent, the page is scheduled away
    /// unread.
    fn process_single_page(
        &self,
        clock: &mut SimClock,
        p: usize,
        st: &mut SearchState<'_>,
        exec: &mut Executor,
        heap: &mut CandidateHeap<Item>,
    ) {
        st.processed[p] = true;
        if !exec.try_probe() {
            return;
        }
        exec.trace.runs += 1;
        clock.phase_begin(Phase::Filter);
        self.consume_page(clock, p, None, st, exec, heap);
    }

    /// The time-optimized strategy: extend the read around the pivot while
    /// the cumulated cost balance stays favorable (Section 2.1), then load
    /// the whole sequence in one sweep and process every unprocessed page
    /// in it.
    fn process_page_run(
        &self,
        clock: &mut SimClock,
        pivot: usize,
        st: &mut SearchState<'_>,
        exec: &mut Executor,
        heap: &mut CandidateHeap<Item>,
    ) {
        clock.phase_begin(Phase::Plan);
        let disk = *clock.disk();
        let n_pages = self.pages().len();
        let bound = exec.prune_threshold();

        // Access probability of page i (eq 2): product over its unprocessed
        // higher-priority competitors — exactly the prefix of the sorted
        // order before its rank. The product collapses quickly (each
        // intersecting page holds many points), so the walk exits early
        // almost always.
        let prob = |tree: &IqTree, st: &SearchState, i: usize| -> f64 {
            if st.processed[i] {
                return 0.0;
            }
            let key = st.page_key[i];
            if key >= bound {
                return 0.0; // already prunable
            }
            let metric = tree.metric();
            let competitors = st.order[..st.rank[i] as usize]
                .iter()
                .map(|&j| j as usize)
                .filter(|&j| !st.processed[j])
                .map(|j| {
                    let meta = &tree.pages()[j];
                    (&meta.mbr, meta.count as usize)
                });
            access_probability(metric, st.q, metric.key_to_distance(key), competitors)
        };

        // `nprobes` caps how many pages will ever be decoded, so the run
        // must not be extended past what the remaining budget can use:
        // pages beyond it would be read as guaranteed-dead filler. The
        // pivot itself consumes one probe. Unlimited budgets leave the
        // extension walk untouched (exact mode stays bit-identical).
        let mut decodable_left = exec.probes_remaining().saturating_sub(1);

        // Forward extension.
        let mut last = pivot;
        let mut ccb = 0.0f64;
        let mut i = pivot + 1;
        while i < n_pages && ccb < disk.t_seek {
            let a = prob(self, st, i);
            if a > 0.0 {
                if decodable_left == 0 {
                    break;
                }
                decodable_left -= 1;
            }
            ccb += disk.t_xfer - a * (disk.t_seek + disk.t_xfer);
            if ccb < 0.0 {
                last = i;
                ccb = 0.0;
            }
            i += 1;
        }
        // Backward extension.
        let mut first = pivot;
        ccb = 0.0;
        let mut j = pivot as i64 - 1;
        while j >= 0 && ccb < disk.t_seek {
            let a = prob(self, st, j as usize);
            if a > 0.0 {
                if decodable_left == 0 {
                    break;
                }
                decodable_left -= 1;
            }
            ccb += disk.t_xfer - a * (disk.t_seek + disk.t_xfer);
            if ccb < 0.0 {
                first = j as usize;
                ccb = 0.0;
            }
            j -= 1;
        }

        // One sequential sweep over [first, last] (pages are laid out in
        // index order in the quantized file). Process the loaded pages in
        // MINDIST order, not disk order: the nearest page tightens the
        // pruning bound first, letting the rest of the run be skipped or
        // decoded against a finite bound.
        let mut members: Vec<usize> = (first..=last).filter(|&p| !st.processed[p]).collect();
        members.sort_by(|&a, &b| {
            st.page_key[a]
                .partial_cmp(&st.page_key[b])
                .expect("keys are never NaN")
        });
        let start_block = self.pages()[first].quant_block;
        let run_len = (last - first + 1) as u64;
        clock.phase_begin(Phase::Filter);
        let buf =
            match read_to_vec_retry(self.quant_dev(), clock, start_block, run_len, self.retry()) {
                Ok(buf) => buf,
                Err(_) => {
                    // One corrupt block poisons the whole ranged read: degrade
                    // to one page at a time so only the bad page pays the
                    // fallback, not the entire sweep.
                    for p in members {
                        if exec.is_pruned(st.page_key[p]) {
                            st.processed[p] = true;
                            exec.trace.pages_skipped += 1;
                            continue;
                        }
                        self.process_single_page(clock, p, st, exec, heap);
                    }
                    return;
                }
            };
        exec.trace.runs += 1;
        let bs = buf.len() / run_len as usize;
        for p in members {
            st.processed[p] = true;
            if exec.is_pruned(st.page_key[p]) {
                exec.trace.pages_skipped += 1;
                continue; // loaded as filler; nothing useful inside
            }
            // The run was read as one sweep, but each *decoded* page still
            // consumes a unit of the `nprobes` budget; members beyond the
            // cap stay undecoded filler.
            if !exec.try_probe() {
                continue;
            }
            let off = (p - first) * bs;
            self.consume_page(clock, p, Some(&buf[off..off + bs]), st, exec, heap);
        }
    }

    /// Decodes page `p` — from `bytes` when a sweep already loaded it,
    /// otherwise read now — and feeds its contents to the search: exact
    /// entries update the result set directly, approximations enter the
    /// priority list as point boxes. A page whose block cannot be read or
    /// decoded contributes its exact region instead.
    ///
    /// This is the level-2 hot loop: the page is streamed through a
    /// header-validated [`QuantPageView`] and each candidate's MINDIST
    /// comes from the per-(query, grid) [`DistTable`] — no `Vec`
    /// allocations, no MBR construction, no f32 reconstruction, and
    /// bit-identical keys to the naive decode-then-`Metric` path.
    fn consume_page(
        &self,
        clock: &mut SimClock,
        p: usize,
        bytes: Option<&[u8]>,
        st: &mut SearchState<'_>,
        exec: &mut Executor,
        heap: &mut CandidateHeap<Item>,
    ) {
        let metric = self.metric();
        let SearchState {
            q,
            filter,
            cells,
            coords,
            table,
            keys,
            ..
        } = st;
        let (q, filter) = (*q, *filter);
        let mut reread = Vec::new();
        let Some(view) = self.view_page(clock, p, bytes, &mut reread) else {
            let skipped = self.visit_exact_region(clock, p, 1, |id, coords| {
                if filter.is_none_or(|f| f.matches(id)) {
                    exec.offer(metric.distance_key(coords, q), id);
                }
            });
            note_fallback(&mut exec.trace, skipped);
            return;
        };
        clock.phase_begin(Phase::Filter);
        clock.charge_dist_evals(self.dim(), view.len() as u64);
        exec.trace.pages_processed += 1;
        if view.bits() == EXACT_BITS {
            view.for_each_entry(cells, |id, bits| {
                if filter.is_none_or(|f| f.matches(id)) {
                    coords.clear();
                    coords.extend(bits.iter().map(|&b| f32::from_bits(b)));
                    exec.offer(metric.distance_key(coords, q), id);
                }
            });
        } else {
            let meta: &PageMeta = &self.pages()[p];
            table.build(&meta.mbr, view.bits(), metric, q, view.len());
            // Whole-page decode + batch MINDIST fold: the SIMD kernels in
            // `iq_quantize::simd` unpack every entry's cells in one pass
            // and fold the per-dimension table rows lane-parallel —
            // bit-identical to the per-entry lookup loop.
            view.unpack_all(cells);
            table.mindist_keys(cells, keys);
            // No exact result is offered while filtering approximations, so
            // the pruning threshold is loop-invariant.
            let bound = exec.prune_threshold();
            for (slot, &key) in keys.iter().enumerate() {
                // Filtered-out points never enter the priority list: they
                // are neither refined nor allowed to influence the bound.
                let id = view.id(slot);
                if filter.is_none_or(|f| f.matches(id)) && key < bound {
                    exec.trace.approx_enqueued += 1;
                    heap.push(Reverse((
                        OrdKey(key),
                        Item::Point(p as u32, slot as u32, id),
                    )));
                }
            }
        }
    }

    /// The level-2 read/decode step every query shares: validates page
    /// `p`'s quantized block — `bytes` when a planned sweep already loaded
    /// it, otherwise one retried read into `reread`. Returns `None` when
    /// the block stays unreadable or its payload does not decode (damage
    /// that slipped past the checksum layer, counted here in the clock's
    /// corruption statistics); the caller then answers the page through
    /// [`Self::visit_exact_region`].
    fn view_page<'b>(
        &self,
        clock: &mut SimClock,
        p: usize,
        bytes: Option<&'b [u8]>,
        reread: &'b mut Vec<u8>,
    ) -> Option<QuantPageView<'b>> {
        let bytes = match bytes {
            Some(b) => b,
            None => {
                let block = self.pages()[p].quant_block;
                *reread =
                    read_to_vec_retry(self.quant_dev(), clock, block, 1, self.retry()).ok()?;
                reread
            }
        };
        let view = self.codec().try_view(bytes);
        if view.is_err() {
            clock.note_corrupt_block();
        }
        view.ok()
    }

    /// The level-3 fallback every query shares, for a page whose quantized
    /// block could not be read or decoded: its exact region holds
    /// self-contained `(id, coords)` rows, so the page is answered at full
    /// precision, just without approximation pruning. Charges one distance
    /// evaluation per entry and query lane, and calls `visit` with each
    /// entry that decodes. Returns how many entries did not, or `None` when
    /// the page is lost — it has no level-3 backing (pages quantized at 32
    /// bits) or its exact region stays unreadable.
    fn visit_exact_region(
        &self,
        clock: &mut SimClock,
        p: usize,
        lanes: usize,
        mut visit: impl FnMut(u32, &[f32]),
    ) -> Option<u64> {
        clock.phase_begin(Phase::Refine);
        let meta = &self.pages()[p];
        if meta.g == EXACT_BITS || meta.exact_blocks == 0 {
            return None;
        }
        let region = self.try_read_exact_region(clock, p).ok()?;
        let codec = self.exact_codec();
        let eb = codec.entry_bytes();
        clock.charge_dist_evals(self.dim(), u64::from(meta.count) * lanes as u64);
        let mut coords = vec![0.0f32; self.dim()];
        let mut skipped = 0;
        for i in 0..meta.count as usize {
            match region
                .get(i * eb..(i + 1) * eb)
                .map(|bytes| codec.try_decode_entry_into(bytes, &mut coords))
            {
                Some(Ok(id)) => visit(id, &coords),
                _ => skipped += 1,
            }
        }
        Some(skipped)
    }

    /// Exact k-NN for a micro-batch of queries in one shared page walk:
    /// every quantized page is read and decoded **once** and all queries
    /// are evaluated against it in a single pass through the multi-query
    /// [`DistTableBlock`] SIMD kernels. Each query owns an [`Executor`]
    /// holding its top-k and trace.
    ///
    /// Two phases:
    ///
    /// 1. **Filter.** Pages are popped from a heap keyed by the minimum
    ///    MINDIST over the batch. Each query `q` tracks δ_q — the k-th
    ///    smallest MAXDIST key seen so far, a certified upper bound on its
    ///    true k-th-NN key — and participates in a page only while the
    ///    page's MINDIST for `q` is within δ_q. Entries from exact
    ///    (g = 32) pages contribute true distances immediately; quantized
    ///    entries whose lower bound is within δ_q become per-query
    ///    refinement candidates. The walk stops when the popped key
    ///    exceeds every query's δ.
    /// 2. **Refine.** Per query, candidates are visited in ascending
    ///    lower-bound order until the bound proves the top-k complete;
    ///    exact-point reads are shared across the batch through a
    ///    `(page, slot)` cache, so a point refined for several queries is
    ///    fetched once.
    ///
    /// Results are exact for every query (the single-query search's
    /// guarantee; ids at tied distances may differ). Corrupt pages degrade
    /// through the exact region exactly as in the single-query path.
    fn knn_multi_traced_impl(
        &self,
        clock: &mut SimClock,
        queries: &[&[f32]],
        k: usize,
        filter: Option<&Filter>,
    ) -> Vec<TracedResult> {
        let nq = queries.len();
        let metric = self.metric();
        let dim = self.dim();
        for q in queries {
            assert_eq!(q.len(), dim, "query dimensionality mismatch");
        }
        if k == 0 || self.is_empty() || filter.is_some_and(|f| f.matching() == 0) {
            return vec![(Vec::new(), QueryTrace::default()); nq];
        }
        if clock.tracing() {
            clock.span_begin("iqtree_multi");
            clock.span_attr("k", &k);
            clock.span_attr("queries", &nq);
            if let Some(f) = filter {
                clock.span_attr("filter_matches", &f.matching());
            }
        }
        clock.phase_begin(Phase::Directory);
        // One directory sweep serves the whole micro-batch.
        self.charge_directory_scan(clock);

        clock.phase_begin(Phase::Plan);
        let n_pages = self.pages().len();
        let mut page_qkey = vec![f64::INFINITY; n_pages * nq];
        let mut heap: CandidateHeap<u32> = CandidateHeap::with_capacity(n_pages);
        for (i, meta) in self.pages().iter().enumerate() {
            if meta.count == 0 {
                continue;
            }
            let mut minkey = f64::INFINITY;
            for (qi, q) in queries.iter().enumerate() {
                let key = metric.mindist_key(q, &meta.mbr);
                page_qkey[i * nq + qi] = key;
                minkey = minkey.min(key);
            }
            heap.push(Reverse((OrdKey(minkey), i as u32)));
        }

        let mut execs: Vec<Executor> = (0..nq)
            .map(|_| Executor::new(metric, k, &QueryOptions::EXACT, clock))
            .collect();
        let mut delta_heap: Vec<BinaryHeap<OrdKey>> = (0..nq).map(|_| BinaryHeap::new()).collect();
        let mut delta = vec![f64::INFINITY; nq];
        // Per-query refinement candidates: (lower-bound key, page, slot, id).
        let mut cands: Vec<Vec<(f64, u32, u32, u32)>> = (0..nq).map(|_| Vec::new()).collect();

        // Reusable page-loop scratch.
        let mut block_table = DistTableBlock::new();
        let mut dist_table = DistTable::new();
        let mut cells: Vec<u32> = Vec::new();
        let mut lo_keys: Vec<f64> = Vec::new();
        let mut hi_keys: Vec<f64> = Vec::new();
        let mut coords: Vec<f32> = Vec::new();
        let mut reread: Vec<u8> = Vec::new();
        let mut active: Vec<usize> = Vec::new();

        while let Some(Reverse((OrdKey(minkey), pidx))) = heap.pop() {
            let worst = delta.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if minkey > worst {
                break; // no query can still improve from any remaining page
            }
            let p = pidx as usize;
            active.clear();
            active.extend((0..nq).filter(|&qi| page_qkey[p * nq + qi] <= delta[qi]));
            if active.is_empty() {
                continue; // every query prunes this page: never read
            }
            // The active query with the smallest page key "owns" the read,
            // so summed per-query runs equal physical page reads.
            let owner = active
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    page_qkey[p * nq + a]
                        .partial_cmp(&page_qkey[p * nq + b])
                        .expect("keys are never NaN")
                })
                .expect("active is non-empty");
            execs[owner].trace.runs += 1;
            clock.phase_begin(Phase::Filter);
            let Some(view) = self.view_page(clock, p, None, &mut reread) else {
                let skipped = self.visit_exact_region(clock, p, active.len(), |id, coords| {
                    if filter.is_none_or(|f| f.matches(id)) {
                        for &qi in &active {
                            let key = metric.distance_key(coords, queries[qi]);
                            note_bound(&mut delta_heap[qi], &mut delta[qi], k, key);
                            execs[qi].offer(key, id);
                        }
                    }
                });
                for &qi in &active {
                    note_fallback(&mut execs[qi].trace, skipped);
                }
                continue;
            };
            clock.charge_dist_evals(dim, view.len() as u64 * active.len() as u64);
            for &qi in &active {
                execs[qi].trace.pages_processed += 1;
            }
            if view.bits() == EXACT_BITS {
                view.for_each_entry(&mut cells, |id, bits| {
                    if filter.is_none_or(|f| f.matches(id)) {
                        coords.clear();
                        coords.extend(bits.iter().map(|&b| f32::from_bits(b)));
                        for &qi in &active {
                            let key = metric.distance_key(&coords, queries[qi]);
                            note_bound(&mut delta_heap[qi], &mut delta[qi], k, key);
                            execs[qi].offer(key, id);
                        }
                    }
                });
                continue;
            }
            let meta = &self.pages()[p];
            let aq: Vec<&[f32]> = active.iter().map(|&qi| queries[qi]).collect();
            if block_table.build(&meta.mbr, view.bits(), metric, &aq, view.len()) {
                // One decoded pass, all active queries per entry: contiguous
                // lane loads in the AVX2 kernel, scalar otherwise.
                view.for_each_entry_multi(
                    &block_table,
                    &mut cells,
                    &mut lo_keys,
                    &mut hi_keys,
                    |slot, id, lo, hi| {
                        if filter.is_none_or(|f| f.matches(id)) {
                            for (ai, &qi) in active.iter().enumerate() {
                                note_bound(&mut delta_heap[qi], &mut delta[qi], k, hi[ai]);
                                if lo[ai] <= delta[qi] {
                                    execs[qi].trace.approx_enqueued += 1;
                                    cands[qi].push((lo[ai], pidx, slot as u32, id));
                                }
                            }
                        }
                    },
                );
            } else {
                // Grid too fine to materialize a block table: per-query
                // batch folds over the one shared decode.
                view.unpack_all(&mut cells);
                for &qi in &active {
                    dist_table.build(&meta.mbr, view.bits(), metric, queries[qi], view.len());
                    dist_table.bounds_keys(&cells, &mut lo_keys, &mut hi_keys);
                    for (slot, (&lo, &hi)) in lo_keys.iter().zip(&hi_keys).enumerate() {
                        let id = view.id(slot);
                        if filter.is_none_or(|f| f.matches(id)) {
                            note_bound(&mut delta_heap[qi], &mut delta[qi], k, hi);
                            if lo <= delta[qi] {
                                execs[qi].trace.approx_enqueued += 1;
                                cands[qi].push((lo, pidx, slot as u32, id));
                            }
                        }
                    }
                }
            }
        }

        // Phase 2: per-query refinement with batch-shared exact reads. An
        // entry that stays unreadable is skipped, not refined (the
        // executor counts it in `points_skipped`).
        clock.phase_begin(Phase::Refine);
        let mut cache: HashMap<(u32, u32), Option<Vec<f32>>> = HashMap::new();
        for ((exec, list), q) in execs.iter_mut().zip(&mut cands).zip(queries) {
            list.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("keys are never NaN")
                    .then(a.3.cmp(&b.3))
            });
            for &(lo, p, slot, id) in list.iter() {
                if exec.is_pruned(lo) {
                    break; // nothing after this lower bound can enter
                }
                exec.refine_with(clock, id, |clock| {
                    let coords = cache
                        .entry((p, slot))
                        .or_insert_with(|| {
                            self.try_read_exact_point(clock, p as usize, slot as usize)
                                .ok()
                        })
                        .as_deref()?;
                    clock.charge_dist_evals(dim, 1);
                    Some(metric.distance_key(coords, q))
                });
            }
        }
        let results: Vec<TracedResult> =
            execs.into_iter().map(|e| e.into_results(metric)).collect();
        clock.phase_end();
        if clock.tracing() {
            // Per-query attribution: phase times above are shared across
            // the batch, so each query gets a zero-duration child span
            // carrying its own counters; the parent carries the sums.
            let mut agg = QueryTrace::default();
            for (qi, (_, trace)) in results.iter().enumerate() {
                agg.merge(trace);
                clock.span_begin("query");
                clock.span_attr("index", &qi);
                for (name, v) in trace.fields() {
                    clock.span_count(name, v);
                }
                clock.span_end();
            }
            query_span_end(clock, &agg);
        }
        results
    }

    /// Batch-refines a known set of `(page, slot, id)` candidates: plans
    /// one optimal fetch over all exact-file blocks involved (Section 2 —
    /// the positions are known in advance), then calls `visit` with each
    /// candidate's id and exact coordinates. If the planned sweep fails
    /// even after retries, degrades to one retried read per candidate,
    /// skipping entries that stay unreadable. The engine of `window`,
    /// `range` and the `refine_factor` partial-refinement rerank in k-NN
    /// search.
    fn refine_batch_with(
        &self,
        clock: &mut SimClock,
        refinements: &[(usize, usize, u32)],
        mut visit: impl FnMut(u32, &[f32]),
    ) {
        if refinements.is_empty() {
            return;
        }
        let bs = self.block_size();
        let pb = self.exact_codec().entry_bytes();
        // Every block any candidate touches, in disk order.
        let mut positions: Vec<u64> = Vec::with_capacity(refinements.len() * 2);
        for &(page, slot, _) in refinements {
            let meta = &self.pages()[page];
            let (first, nblocks, _) = self.exact_codec().entry_span(slot, bs);
            for b in 0..nblocks {
                positions.push(meta.exact_start + first + b);
            }
        }
        positions.sort_unstable();
        positions.dedup();
        // A failed sweep leaves every candidate to its own retried read.
        let fetched = self
            .retry()
            .run(clock, |clock| {
                fetch::fetch_blocks(self.exact_dev(), clock, &positions)
            })
            .unwrap_or_default();
        let mut point_buf = vec![0u8; pb];
        let mut coords = vec![0.0f32; self.dim()];
        for &(page, slot, id) in refinements {
            let meta = &self.pages()[page];
            let (first, nblocks, byte_off) = self.exact_codec().entry_span(slot, bs);
            // Stitch the entry out of its planned block(s). A block missing
            // from the plan or a payload that fails to decode is
            // corruption, not a crash: degrade that candidate to one
            // retried read, skipping it if it stays unreadable (the damage
            // is visible in the clock statistics).
            let mut planned = true;
            let (mut cursor, mut off) = (0usize, byte_off);
            for b in 0..nblocks {
                let Some(bytes) = fetch::fetched_block(&fetched, meta.exact_start + first + b, bs)
                else {
                    planned = false;
                    break;
                };
                let take = (bs - off).min(pb - cursor);
                point_buf[cursor..cursor + take].copy_from_slice(&bytes[off..off + take]);
                cursor += take;
                off = 0;
            }
            let decoded = planned
                && self
                    .exact_codec()
                    .try_decode_entry_into(&point_buf, &mut coords)
                    .is_ok();
            if !decoded {
                match self.try_read_exact_point(clock, page, slot) {
                    Ok(read) => coords.copy_from_slice(&read),
                    Err(_) => continue,
                }
            }
            clock.charge_dist_evals(self.dim(), 1);
            visit(id, &coords);
        }
    }

    /// The shared body of the IQ-tree's `window` and `range`, whose
    /// candidate pages — the non-empty ones `select` keeps — are known up
    /// front: one optimal batch fetch (Section 2, Figure 1) loads their
    /// level-2 blocks, and each page goes through [`Self::view_page`] (a
    /// block missing from the sweep is re-read once). Entries of exact
    /// (g = 32) pages are tested with `accept` directly. For a quantized
    /// page, `classify` sorts the unpacked cell boxes into `matches`:
    /// inside boxes are accepted as they are, straddling ones are verified
    /// with `accept` in one planned sweep over the exact file. A page that
    /// cannot be read or decoded is answered from its exact region.
    fn planned_query(
        &self,
        clock: &mut SimClock,
        select: impl Fn(&PageMeta) -> bool,
        accept: impl Fn(&[f32]) -> bool,
        mut classify: impl FnMut(&PageMeta, &QuantPageView<'_>, &[u32], &mut Vec<CellMatch>),
    ) -> Vec<u32> {
        if self.is_empty() {
            return Vec::new();
        }
        clock.phase_begin(Phase::Directory);
        self.charge_directory_scan(clock);
        clock.phase_begin(Phase::Plan);
        let candidates: Vec<usize> = self
            .pages()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.count > 0 && select(m))
            .map(|(i, _)| i)
            .collect();
        let positions: Vec<u64> = candidates
            .iter()
            .map(|&i| self.pages()[i].quant_block)
            .collect();
        clock.phase_begin(Phase::Filter);
        // A failed sweep leaves every page to its own retried read.
        let fetched = self
            .retry()
            .run(clock, |clock| {
                fetch::fetch_blocks(self.quant_dev(), clock, &positions)
            })
            .unwrap_or_default();
        let bs = self.codec().block_size();
        let mut out = Vec::new();
        let mut refinements: Vec<(usize, usize, u32)> = Vec::new();
        // Reusable per-query scratch: the page loop below is allocation-free
        // in the steady state.
        let mut cells: Vec<u32> = Vec::new();
        let mut coords: Vec<f32> = Vec::new();
        let mut matches: Vec<CellMatch> = Vec::new();
        let mut reread: Vec<u8> = Vec::new();
        for &p in &candidates {
            let meta = &self.pages()[p];
            let planned = fetch::fetched_block(&fetched, meta.quant_block, bs);
            let Some(view) = self.view_page(clock, p, planned, &mut reread) else {
                self.visit_exact_region(clock, p, 1, |id, coords| {
                    if accept(coords) {
                        out.push(id);
                    }
                });
                clock.phase_begin(Phase::Filter);
                continue;
            };
            clock.charge_dist_evals(self.dim(), view.len() as u64);
            if view.bits() == EXACT_BITS {
                view.for_each_entry(&mut cells, |id, bits| {
                    coords.clear();
                    coords.extend(bits.iter().map(|&b| f32::from_bits(b)));
                    if accept(&coords) {
                        out.push(id);
                    }
                });
                continue;
            }
            view.unpack_all(&mut cells);
            classify(meta, &view, &cells, &mut matches);
            for (slot, &m) in matches.iter().enumerate() {
                match m {
                    CellMatch::Disjoint => {}
                    CellMatch::Inside => out.push(view.id(slot)),
                    CellMatch::Partial => refinements.push((p, slot, view.id(slot))),
                }
            }
        }
        clock.phase_begin(Phase::Refine);
        self.refine_batch_with(clock, &refinements, |id, coords| {
            if accept(coords) {
                out.push(id);
            }
        });
        clock.phase_end();
        out
    }

    /// The cost model's prediction of what a `k`-NN query against the
    /// current page configuration will do: how many second-level pages it
    /// reads (eqs 16–18, k-NN sphere per footnote 1) and how long the three
    /// levels take together (eq 23 with the k-NN refinement expectation of
    /// eq 15 summed over live pages).
    ///
    /// This is the "predicted" side of [`iq_obs::CostAudit`]; the observed
    /// side is the [`QueryTrace`] / [`SimClock`] of a real query.
    pub fn predict_knn_cost(&self, disk: &iq_storage::DiskModel, k: usize) -> CostPrediction {
        self.predict_knn_cost_opts(disk, k, &QueryOptions::EXACT)
    }

    /// [`IqTree::predict_knn_cost`] under approximation [`QueryOptions`]:
    /// `nprobes` caps the expected second-level page count, `refine_factor`
    /// caps the refinement term at `k × refine_factor` exact reads, and a
    /// `time_budget` clips the total. `epsilon` is modeled conservatively
    /// (no reduction): the ε savings depend on the data distribution near
    /// the query, which the page-level model cannot see.
    pub fn predict_knn_cost_opts(
        &self,
        disk: &iq_storage::DiskModel,
        k: usize,
        opts: &QueryOptions,
    ) -> CostPrediction {
        let k = k.max(1);
        let live: Vec<&PageMeta> = self.pages().iter().filter(|p| p.count > 0).collect();
        let n = live.len();
        let mut pages = iq_cost::expected_pages_accessed_knn(self.dir_params(), n, k);
        if let Some(m) = opts.nprobes {
            pages = pages.min(m as f64);
        }
        let mut refine_pages = 0.0;
        for meta in &live {
            let sides: Vec<f32> = (0..self.dim()).map(|i| meta.mbr.extent(i) as f32).collect();
            refine_pages += iq_cost::expected_refinements_knn(
                self.refine_params(),
                &sides,
                meta.count as usize,
                meta.g,
                k,
            );
        }
        if opts.refine_factor >= 2 {
            refine_pages = refine_pages.min((k as f64) * f64::from(opts.refine_factor));
        }
        let mut io_seconds = iq_cost::first_level_cost(self.dir_params(), disk, n)
            + iq_cost::directory::second_level_cost_for_k(disk, n, pages)
            + refine_pages * (disk.t_seek + disk.t_xfer);
        if let Some(b) = opts.time_budget {
            io_seconds = io_seconds.min(b);
        }
        CostPrediction {
            pages,
            io_seconds,
            filter_pages: pages,
            refine_pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::{build_tree, random_ds};
    use crate::{AccessMethod, IqTreeOptions};
    use iq_geometry::{Dataset, Metric};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn brute_knn(ds: &Dataset, q: &[f32], k: usize) -> Vec<(u32, f64)> {
        let m = Metric::Euclidean;
        let mut all: Vec<(u32, f64)> = (0..ds.len())
            .map(|i| (i as u32, m.distance(ds.point(i), q)))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
        all.truncate(k);
        all
    }

    #[test]
    fn nearest_matches_brute_force_all_variants() {
        let ds = random_ds(1_200, 6, 11);
        let variants = [
            IqTreeOptions::default(),
            IqTreeOptions {
                scheduled_io: false,
                ..Default::default()
            },
            IqTreeOptions {
                quantize: false,
                ..Default::default()
            },
            IqTreeOptions {
                quantize: false,
                scheduled_io: false,
                ..Default::default()
            },
        ];
        for (vi, opts) in variants.into_iter().enumerate() {
            let (tree, mut clock) = build_tree(&ds, opts, 1024);
            let mut rng = StdRng::seed_from_u64(42);
            for t in 0..15 {
                let q: Vec<f32> = (0..6).map(|_| rng.gen()).collect();
                let (_, d) = tree.nearest(&mut clock, &q).expect("non-empty");
                let expect = brute_knn(&ds, &q, 1)[0];
                assert!(
                    (d - expect.1).abs() < 1e-6,
                    "variant {vi}, query {t}: {d} vs {}",
                    expect.1
                );
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let ds = random_ds(900, 5, 12);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let q = vec![0.37f32; 5];
        let got = tree.knn(&mut clock, &q, 11);
        let expect = brute_knn(&ds, &q, 11);
        assert_eq!(got.len(), 11);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g.1 - e.1).abs() < 1e-6, "{got:?}");
        }
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn range_matches_brute_force() {
        let ds = random_ds(1_000, 4, 13);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        for (q, r) in [
            (vec![0.5f32; 4], 0.3),
            (vec![0.1f32; 4], 0.5),
            (vec![0.9f32; 4], 0.05),
        ] {
            let mut got = tree.range(&mut clock, &q, r);
            got.sort_unstable();
            let mut expect: Vec<u32> = (0..ds.len() as u32)
                .filter(|&i| Metric::Euclidean.distance(ds.point(i as usize), &q) <= r)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "r={r}");
        }
    }

    #[test]
    fn scheduled_io_reduces_seeks() {
        // In high dimensions many pages must be read; the scheduler should
        // turn most of the random accesses into sweeps.
        let ds = random_ds(6_000, 12, 14);
        let (t_std, mut c_std) = build_tree(
            &ds,
            IqTreeOptions {
                scheduled_io: false,
                ..Default::default()
            },
            1024,
        );
        let (t_opt, mut c_opt) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let q = vec![0.5f32; 12];
        t_std.nearest(&mut c_std, &q);
        t_opt.nearest(&mut c_opt, &q);
        assert!(
            c_opt.stats().seeks < c_std.stats().seeks,
            "opt {} vs std {} seeks",
            c_opt.stats().seeks,
            c_std.stats().seeks
        );
        assert!(
            c_opt.io_time() <= c_std.io_time(),
            "opt {} vs std {} io seconds",
            c_opt.io_time(),
            c_std.io_time()
        );
    }

    #[test]
    fn empty_k_returns_empty() {
        let ds = random_ds(100, 3, 15);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        assert!(tree.knn(&mut clock, &[0.5, 0.5, 0.5], 0).is_empty());
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let ds = random_ds(50, 3, 16);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        let got = tree.knn(&mut clock, &[0.5, 0.5, 0.5], 500);
        assert_eq!(got.len(), 50);
    }

    #[test]
    fn maximum_metric_nearest() {
        let ds = random_ds(700, 5, 17);
        let mut clock = iq_storage::SimClock::default();
        let tree = crate::IqTree::build(
            &ds,
            Metric::Maximum,
            IqTreeOptions::default(),
            || Box::new(iq_storage::MemDevice::new(1024)),
            &mut clock,
        );
        let q = vec![0.6f32; 5];
        let (_, d) = tree.nearest(&mut clock, &q).expect("non-empty");
        let expect = (0..ds.len())
            .map(|i| Metric::Maximum.distance(ds.point(i), &q))
            .fold(f64::INFINITY, f64::min);
        assert!((d - expect).abs() < 1e-6);
    }

    #[test]
    fn query_trace_reports_work() {
        let ds = random_ds(3_000, 8, 19);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let q = vec![0.5f32; 8];
        let (results, trace) = tree.knn_traced(&mut clock, &q, 3);
        assert_eq!(results.len(), 3);
        assert!(trace.pages_processed >= 1);
        assert!(trace.runs >= 1);
        assert!(trace.runs <= clock.stats().seeks + 1);
        // With quantized pages, some approximations must have been
        // enqueued, and the NN itself requires at least one refinement
        // unless its page was exact.
        let any_quantized = tree.pages().iter().any(|p| p.g < 32);
        if any_quantized {
            assert!(trace.approx_enqueued > 0);
        }
        // Trace is consistent with the page universe.
        assert!(trace.pages_processed + trace.pages_skipped <= tree.num_pages() as u64);
    }

    #[test]
    fn standard_mode_traces_one_run_per_page() {
        let ds = random_ds(2_000, 6, 20);
        let opts = IqTreeOptions {
            scheduled_io: false,
            ..Default::default()
        };
        let (tree, mut clock) = build_tree(&ds, opts, 1024);
        let (_, trace) = tree.knn_traced(&mut clock, &[0.3f32; 6], 1);
        assert_eq!(
            trace.runs, trace.pages_processed,
            "one random read per page"
        );
        assert_eq!(trace.pages_skipped, 0);
    }

    #[test]
    fn knn_phase_times_cover_total_query_cost() {
        let ds = random_ds(3_000, 8, 21);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let (results, _) = tree.knn_traced(&mut clock, &[0.4f32; 8], 5);
        assert_eq!(results.len(), 5);
        let phases = clock.phase_times();
        // Every charge inside knn_traced happens inside an open phase, so
        // the per-phase sim times account for the whole query exactly.
        let total = clock.total_time();
        assert!(total > 0.0);
        assert!(
            (phases.total_sim() - total).abs() <= 1e-12 * total.max(1.0),
            "phases {} vs clock {total}",
            phases.total_sim()
        );
        // The level-2 filter did real work, and so did the directory sweep.
        assert!(phases.sim[iq_obs::Phase::Directory.index()] > 0.0);
        assert!(phases.sim[iq_obs::Phase::Filter.index()] > 0.0);
    }

    #[test]
    fn window_and_range_phase_times_cover_total_cost() {
        let ds = random_ds(1_500, 4, 22);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        tree.range(&mut clock, &[0.5f32; 4], 0.25);
        let total = clock.total_time();
        assert!(total > 0.0);
        assert!((clock.phase_times().total_sim() - total).abs() <= 1e-12 * total);
        clock.reset();
        let w = iq_geometry::Mbr::from_bounds(vec![0.2; 4], vec![0.6; 4]);
        tree.window(&mut clock, &w);
        let total = clock.total_time();
        assert!(total > 0.0);
        assert!((clock.phase_times().total_sim() - total).abs() <= 1e-12 * total);
    }

    #[test]
    fn cost_prediction_is_sane() {
        use iq_engine::AccessMethod;
        let ds = random_ds(2_000, 8, 23);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let disk = iq_storage::DiskModel::default();
        let base = tree.predict_knn_cost(&disk, 1).pages;
        for k in [1usize, 5, 25] {
            let p = tree.predict_knn_cost(&disk, k);
            assert!(p.pages >= base, "k={k}");
            assert!(p.pages >= 1.0 && p.pages <= tree.num_pages() as f64);
            assert!(p.io_seconds.is_finite() && p.io_seconds > 0.0);
        }
        // The trait hook reports the same pages as the inherent method on
        // the default disk.
        let via_trait = AccessMethod::cost_prediction(&tree, 5, &iq_engine::QueryOptions::EXACT)
            .expect("iq-tree has a model");
        assert_eq!(via_trait.pages, tree.predict_knn_cost(&disk, 5).pages);

        // Knobs cap the prediction from their respective sides.
        let opts = iq_engine::QueryOptions {
            nprobes: Some(2),
            refine_factor: 2,
            time_budget: Some(1e-4),
            ..iq_engine::QueryOptions::EXACT
        };
        let capped = tree.predict_knn_cost_opts(&disk, 25, &opts);
        let exact = tree.predict_knn_cost(&disk, 25);
        assert!(capped.pages <= exact.pages.min(2.0));
        assert!(capped.io_seconds <= exact.io_seconds.min(1e-4));
    }

    /// Sorts by (distance bits, id) so tied distances compare stably
    /// across paths that break ties differently.
    fn canon(mut hits: Vec<(u32, f64)>) -> Vec<(u64, u32)> {
        let mut keyed: Vec<(u64, u32)> = hits.drain(..).map(|(id, d)| (d.to_bits(), id)).collect();
        keyed.sort_unstable();
        keyed
    }

    #[test]
    fn multi_query_knn_matches_single_query_path() {
        use iq_engine::AccessMethod;
        let ds = random_ds(2_500, 6, 31);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let mut rng = StdRng::seed_from_u64(77);
        let queries: Vec<Vec<f32>> = (0..7)
            .map(|_| (0..6).map(|_| rng.gen()).collect())
            .collect();
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let mut mc = iq_storage::SimClock::default();
        let multi =
            tree.knn_multi_opts_traced(&mut mc, &refs, 9, None, &iq_engine::QueryOptions::EXACT);
        assert_eq!(multi.len(), queries.len());
        for (q, (got, trace)) in queries.iter().zip(&multi) {
            let want = tree.knn(&mut clock, q, 9);
            assert_eq!(canon(got.clone()), canon(want), "distances must be exact");
            assert!(trace.pages_processed >= 1);
        }
        // The shared walk reads each page at most once for the whole
        // batch: summed runs cannot exceed the page universe.
        let runs: u64 = multi.iter().map(|(_, t)| t.runs).sum();
        assert!(runs <= tree.num_pages() as u64);
    }

    #[test]
    fn multi_query_knn_respects_filter() {
        use iq_engine::AccessMethod;
        let ds = random_ds(1_200, 5, 33);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let filter = iq_engine::Filter::from_fn(ds.len(), |id| id % 3 == 0);
        let queries = [vec![0.3f32; 5], vec![0.7f32; 5], vec![0.1f32; 5]];
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let mut mc = iq_storage::SimClock::default();
        let multi = tree.knn_multi_opts_traced(
            &mut mc,
            &refs,
            6,
            Some(&filter),
            &iq_engine::QueryOptions::EXACT,
        );
        for (q, (got, _)) in queries.iter().zip(&multi) {
            assert!(got.iter().all(|&(id, _)| id % 3 == 0));
            let mut sc = iq_storage::SimClock::default();
            let want = tree.knn_filtered(&mut sc, q, 6, Some(&filter));
            assert_eq!(canon(got.clone()), canon(want));
        }
    }

    #[test]
    fn multi_query_knn_k_larger_than_n_returns_all() {
        use iq_engine::AccessMethod;
        let ds = random_ds(60, 3, 35);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        let queries = [vec![0.2f32; 3], vec![0.8f32; 3]];
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let multi = tree.knn_multi_opts_traced(
            &mut clock,
            &refs,
            500,
            None,
            &iq_engine::QueryOptions::EXACT,
        );
        for (got, _) in &multi {
            assert_eq!(got.len(), 60);
        }
    }

    /// A level-2 block whose checksum is valid but whose header does not
    /// decode (resolution byte `g = 0`, written through the tree's own
    /// checksummed device) degrades every query path the same way: each
    /// answers the page from its exact level and counts the block in
    /// `IoStats::corrupt_blocks` once.
    #[test]
    fn undecodable_quant_page_degrades_every_query_path() {
        use iq_engine::AccessMethod;
        use iq_storage::SimClock;
        let ds = random_ds(1_500, 4, 41);
        let (mut tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        let meta = tree
            .pages()
            .iter()
            .find(|m| m.g < 32 && m.exact_blocks > 0)
            .expect("a quantized page")
            .clone();
        let mut block = tree
            .quant_dev()
            .read_to_vec(&mut clock, meta.quant_block, 1)
            .expect("clean read");
        block[2] = 0; // the header's resolution byte
        tree.level_dev_mut(iq_wal::Level::Quant)
            .write_blocks(&mut clock, meta.quant_block, &block)
            .expect("checksummed write");

        // Queries centred on the damaged page, so every path reads it.
        let center: Vec<f32> = (0..4)
            .map(|i| (meta.mbr.lb(i) + meta.mbr.ub(i)) / 2.0)
            .collect();
        let brute_set = |keep: &dyn Fn(&[f32]) -> bool| -> Vec<u32> {
            (0..ds.len() as u32)
                .filter(|&i| keep(ds.point(i as usize)))
                .collect()
        };
        let sorted = |mut ids: Vec<u32>| {
            ids.sort_unstable();
            ids
        };
        let mut corrupt = Vec::new();

        let mut c = SimClock::default();
        let got = tree.knn(&mut c, &center, 10);
        assert_eq!(canon(got), canon(brute_knn(&ds, &center, 10)));
        corrupt.push(c.stats().corrupt_blocks);

        let mut c = SimClock::default();
        let queries = [center.as_slice(), &[0.5; 4]];
        let multi =
            tree.knn_multi_opts_traced(&mut c, &queries, 10, None, &iq_engine::QueryOptions::EXACT);
        for (q, (got, _)) in queries.iter().zip(multi) {
            assert_eq!(canon(got), canon(brute_knn(&ds, q, 10)));
        }
        corrupt.push(c.stats().corrupt_blocks);

        let mut c = SimClock::default();
        let got = sorted(tree.range(&mut c, &center, 0.2));
        let m = Metric::Euclidean;
        assert_eq!(got, brute_set(&|p| m.distance(p, &center) <= 0.2));
        corrupt.push(c.stats().corrupt_blocks);

        let mut c = SimClock::default();
        let got = sorted(tree.window(&mut c, &meta.mbr));
        assert_eq!(got, brute_set(&|p| meta.mbr.contains_point(p)));
        corrupt.push(c.stats().corrupt_blocks);

        assert!(corrupt[0] >= 1, "{corrupt:?}");
        assert!(corrupt.iter().all(|&n| n == corrupt[0]), "{corrupt:?}");
    }

    #[test]
    fn query_cost_is_deterministic() {
        let ds = random_ds(2_000, 8, 18);
        let q = vec![0.42f32; 8];
        let (t1, mut c1) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let (t2, mut c2) = build_tree(&ds, IqTreeOptions::default(), 1024);
        t1.nearest(&mut c1, &q);
        t2.nearest(&mut c2, &q);
        assert_eq!(c1.io_time(), c2.io_time());
        assert_eq!(c1.stats(), c2.stats());
    }
}
