//! The scheduler's view of the storage hierarchy: which assignments would
//! pay a spill-plane readback, and readmitting the wave frontier's tiles
//! ahead of their demand reads. Host-side only — nothing here touches
//! simulated time, receipts or placement.

use super::fill::WaveEntry;
use super::Exec;
use crate::job::TileRef;

impl Exec<'_> {
    /// Residency oracle for one assignment: is its hinted dominant input
    /// currently demoted to the spill plane (a read now pays a synchronous
    /// readback)? Hint-less tasks count as resident, and so does
    /// everything when the store has no memory budget.
    pub(super) fn entry_input_spilled(&self, e: &WaveEntry) -> bool {
        self.memory_budget.is_some()
            && self.dag.jobs[e.job].tasks[e.task]
                .locality_hint
                .as_ref()
                .is_some_and(|(m, ti, tj)| self.sched.store.tile_is_spilled(m, *ti, *tj))
    }

    /// The wave's spilled frontier: up to
    /// [`SchedulerConfig::prefetch_depth`](super::SchedulerConfig::prefetch_depth)
    /// distinct demoted tiles the scheduler is about to want, scanned in
    /// demand order — first the fill's own still-unresolved entries
    /// (`pending`, as `(job, task)` pairs; their reads are next), then —
    /// only once every ready job's pending pool is drained, so the
    /// successors really are the next wave — the tasks of not-yet-ready
    /// successor jobs in index order (their reads of tiles *earlier* jobs
    /// produced — reused inputs like the `A` of every power iteration —
    /// already exist and may have spilled, while reads of tiles this fill
    /// is still producing simply aren't demoted yet and are skipped).
    fn prefetch_frontier(&self, pending: &[(usize, usize)]) -> Vec<TileRef> {
        let depth = self.config.prefetch_depth;
        let mut frontier: Vec<TileRef> = Vec::new();
        // Only tiles a not-yet-resolved task is about to read are
        // candidates: every one is still ahead of its demand read, so a
        // readmission can never waste budget on a tile the run has
        // already consumed (a whole-matrix sweep would re-fetch spilled
        // tiles that nothing reads again, evicting live ones to do it).
        // A task's declared read set enumerates those tiles in read
        // order; tasks without one contribute their locality hint.
        let consider = |job: usize, task: usize, frontier: &mut Vec<TileRef>| {
            let t = &self.dag.jobs[job].tasks[task];
            let hint = t
                .read_set
                .is_empty()
                .then(|| t.locality_hint.clone())
                .flatten();
            for (m, i, j) in t.read_set.iter().cloned().chain(hint) {
                if frontier.len() >= depth {
                    return;
                }
                let key = (m, i, j);
                if !frontier.contains(&key)
                    && self.sched.store.tile_is_spilled(&key.0, key.1, key.2)
                {
                    frontier.push(key);
                }
            }
        };
        for &(job, task) in pending {
            if frontier.len() >= depth {
                return frontier;
            }
            consider(job, task, &mut frontier);
        }
        // Looking past the fill's own entries is the next wave's frontier
        // only once every ready job's pending pool is drained. Scanning
        // unassigned or successor tasks while ready work remains is
        // actively harmful: their reads are many fills away, every
        // intervening fill commits writes that evict what the scan
        // readmitted, and the next fill's scan readmits the same tiles
        // again — the prefetcher becomes a readback amplifier. (The
        // fill's own entries are immune: their reads land before any of
        // this fill's writes commit.)
        let ready_drained = self.jobs.iter().all(|s| !s.ready() || s.pending.is_empty());
        if !ready_drained {
            return frontier;
        }
        for (j, state) in self.jobs.iter().enumerate() {
            if state.done || state.remaining_deps == 0 {
                continue;
            }
            for t in 0..self.dag.jobs[j].tasks.len() {
                if frontier.len() >= depth {
                    return frontier;
                }
                if !state.task_done[t] {
                    consider(j, t, &mut frontier);
                }
            }
        }
        frontier
    }

    /// Readmits the frontier's tiles from the spill plane, inline, as one
    /// batch ahead of the demand reads of `pending` (the wave's
    /// still-unresolved entries). Readmission replaces a demoted replica
    /// in place — no placement RNG draw — and errors are deliberately
    /// dropped: prefetch is a hint, and the next canonical read pays the
    /// readback it would have paid anyway. Staging is byte-capped at half
    /// the memory budget: readmitting more than the budget can hold evicts
    /// the very tiles just prefetched (and, worse, tiles the current wave
    /// still needs), turning the prefetch into extra readbacks instead of
    /// fewer.
    pub(super) fn stage_prefetch(&self, pending: &[(usize, usize)]) {
        let Some(budget) = self.memory_budget else {
            return;
        };
        if self.config.prefetch_depth == 0 {
            return;
        }
        let mut spent = 0u64;
        for (m, ti, tj) in self.prefetch_frontier(pending) {
            if spent >= budget / 2 {
                break;
            }
            spent += self.sched.store.prefetch_tile(&m, ti, tj).unwrap_or(0);
        }
    }
}
