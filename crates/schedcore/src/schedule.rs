//! The schedule encoding `S : J × C → {b_j^i}` (paper Eq 1–2, Figure 1).
//!
//! A [`Schedule`] assigns every GPU at most one `(job, local batch)` pair —
//! the genome of the evolutionary search. Because a slot holds one job, the
//! paper's no-sharing constraint (Eq 4) holds by construction. The derived
//! quantities of Eq 2 — global batch `B_j = Σ_i b_j^i` and GPU count
//! `c_j = Σ_i min(1, b_j^i)` — are computed on demand.

use ones_cluster::{ClusterSpec, GpuId, Placement};
use ones_workload::JobId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// FNV-1a offset basis / prime, used for the per-job configuration
/// signatures ([`Schedule::job_signature`]).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// The set of jobs an evolution operation touched relative to the parent
/// schedule: every job whose `(placement shape, batch split)` may differ.
/// Delta-scoring recomputes exactly these jobs' Eq 8 terms and reuses the
/// parent's for the rest, so completeness of this set is a correctness
/// requirement (over-approximation is always safe).
pub type DirtySet = BTreeSet<JobId>;

/// One placed job's configuration signature within a schedule, gathered
/// by [`Schedule::job_signatures`].
///
/// The placement component hashes the placement *shape* — `(GPU count,
/// nodes spanned, max contiguous runs per node)` — not the absolute GPU
/// indices. The throughput model reads a placement only through those
/// three quantities (`dlperf::throughput` bottlenecks on
/// `nodes_spanned`/`max_runs_per_node`), so two placements with equal
/// shape have bit-identical model throughput and may share cache
/// entries. This also makes the signature invariant under the *reorder*
/// operation whenever packing does not change a job's node span, which
/// is what lets score cards survive reordering. Heterogeneous clusters
/// (per-node GPU classes) would break this purity and must extend the
/// key before landing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSignature {
    /// Hash of the job's placement shape (gpus, nodes spanned, max runs
    /// per node).
    pub placement: u64,
    /// Hash of the job's local batches, order-sensitive in GPU-id order.
    pub batches: u64,
    /// GPUs the job holds (`c_j`).
    pub gpus: u32,
}

impl JobSignature {
    /// Hash of a placement shape. The single definition every signature
    /// producer folds through — [`Schedule::job_signature`], the
    /// contiguous-layout fast path, and direct `Placement` probes must
    /// all agree bit-for-bit for throughput memoisation to be sound.
    #[must_use]
    pub fn placement_shape_hash(gpus: u32, nodes_spanned: u32, max_runs_per_node: u32) -> u64 {
        let mut h = fnv_fold(FNV_OFFSET, u64::from(gpus));
        h = fnv_fold(h, u64::from(nodes_spanned));
        fnv_fold(h, u64::from(max_runs_per_node))
    }

    /// Shape hash of a contiguous run of `len` GPUs starting at GPU id
    /// `start`: contiguous ids mean one run per node, and the node span
    /// is pure index arithmetic. `O(1)` — the reorder fast path.
    ///
    /// # Panics
    /// Panics if `len` is zero or `gpus_per_node` is zero.
    #[must_use]
    pub fn contiguous_shape_hash(start: u32, len: u32, gpus_per_node: u32) -> u64 {
        assert!(len > 0 && gpus_per_node > 0);
        let nodes = (start + len - 1) / gpus_per_node - start / gpus_per_node + 1;
        JobSignature::placement_shape_hash(len, nodes, 1)
    }

    /// Order-sensitive hash of local batches (must be fed in GPU-id
    /// order to match [`Schedule::job_signature`]).
    #[must_use]
    pub fn batches_hash(batches: impl IntoIterator<Item = u32>) -> u64 {
        batches
            .into_iter()
            .fold(FNV_OFFSET, |h, b| fnv_fold(h, u64::from(b)))
    }
}

/// One job's contiguous block in a reordered schedule: workers occupy
/// GPUs `start..start + len`. Produced by
/// [`Schedule::reordered_with_layout`] so delta-scoring can re-derive
/// every job's signature in `O(1)` per job instead of re-walking slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRun {
    /// The job owning the block.
    pub job: JobId,
    /// First GPU id of the block.
    pub start: u32,
    /// Number of GPUs in the block.
    pub len: u32,
}

/// Incremental placement-shape accumulator for an ascending GPU-id walk:
/// counts GPUs, distinct nodes (ids ascend, so node changes are
/// transitions) and contiguous-id runs per node, mirroring
/// `Placement::nodes_spanned` / `Placement::max_runs_per_node` exactly.
#[derive(Debug, Clone, Copy, Default)]
struct ShapeAcc {
    gpus: u32,
    nodes: u32,
    max_runs: u32,
    runs_on_node: u32,
    last_node: u32,
    last_gpu: u32,
}

impl ShapeAcc {
    #[inline]
    fn push(&mut self, gpu: u32, gpus_per_node: u32) {
        let node = gpu / gpus_per_node;
        if self.gpus == 0 {
            self.nodes = 1;
            self.runs_on_node = 1;
        } else if node != self.last_node {
            self.nodes += 1;
            self.runs_on_node = 1;
        } else if gpu != self.last_gpu + 1 {
            self.runs_on_node += 1;
        }
        self.max_runs = self.max_runs.max(self.runs_on_node);
        self.last_node = node;
        self.last_gpu = gpu;
        self.gpus += 1;
    }
}

/// Builds one job's [`JobSignature`] from its workers fed in ascending
/// GPU-id order, without a schedule: the fold [`Schedule::job_signature`]
/// runs over the slots, exposed so a hypothetical placement (a fill
/// probe) hashes into the same key space with no allocation.
#[derive(Debug, Clone, Copy)]
pub struct SignatureBuilder {
    shape: ShapeAcc,
    batches: u64,
    gpus_per_node: u32,
}

impl SignatureBuilder {
    /// An empty signature for a cluster with `gpus_per_node` GPUs per
    /// node.
    #[must_use]
    pub fn new(gpus_per_node: u32) -> Self {
        SignatureBuilder {
            shape: ShapeAcc::default(),
            batches: FNV_OFFSET,
            gpus_per_node,
        }
    }

    /// Adds a worker with `local_batch` samples on `gpu`, which must lie
    /// above every GPU pushed before.
    #[inline]
    pub fn push(&mut self, gpu: GpuId, local_batch: u32) {
        debug_assert!(
            self.shape.gpus == 0 || gpu.0 > self.shape.last_gpu,
            "workers must be pushed in ascending GPU-id order"
        );
        self.shape.push(gpu.0, self.gpus_per_node);
        self.batches = fnv_fold(self.batches, u64::from(local_batch));
    }

    /// The signature of the workers pushed so far; `None` if there are
    /// none.
    #[must_use]
    pub fn finish(&self) -> Option<JobSignature> {
        let a = &self.shape;
        (a.gpus > 0).then(|| JobSignature {
            placement: JobSignature::placement_shape_hash(a.gpus, a.nodes, a.max_runs),
            batches: self.batches,
            gpus: a.gpus,
        })
    }
}

/// One GPU's assignment: a job and its local batch `b_j^i ≥ 1` on this GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Slot {
    /// The job whose worker runs here.
    pub job: JobId,
    /// Local batch size on this GPU (always ≥ 1).
    pub local_batch: u32,
}

/// A complete assignment of the cluster's GPUs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schedule {
    slots: Vec<Option<Slot>>,
}

impl Schedule {
    /// An empty schedule for a cluster with `total_gpus` devices.
    #[must_use]
    pub fn empty(total_gpus: u32) -> Self {
        Schedule {
            slots: vec![None; total_gpus as usize],
        }
    }

    /// Number of GPU slots (== cluster size).
    #[must_use]
    pub fn num_gpus(&self) -> u32 {
        self.slots.len() as u32
    }

    /// The slot on one GPU.
    ///
    /// # Panics
    /// Panics if the GPU id is out of range.
    #[must_use]
    pub fn slot(&self, gpu: GpuId) -> Option<Slot> {
        self.slots[gpu.0 as usize]
    }

    /// Assigns a worker of `job` with `local_batch` samples to `gpu`,
    /// replacing any previous occupant.
    ///
    /// # Panics
    /// Panics if `local_batch` is zero (use [`Schedule::clear`] to free a
    /// GPU) or the GPU id is out of range.
    pub fn assign(&mut self, gpu: GpuId, job: JobId, local_batch: u32) {
        assert!(local_batch > 0, "a placed worker needs a positive batch");
        self.slots[gpu.0 as usize] = Some(Slot { job, local_batch });
    }

    /// Frees a GPU.
    pub fn clear(&mut self, gpu: GpuId) {
        self.slots[gpu.0 as usize] = None;
    }

    /// Removes every worker of `job`, returning how many GPUs were freed.
    pub fn evict(&mut self, job: JobId) -> usize {
        let mut freed = 0;
        for s in &mut self.slots {
            if s.is_some_and(|sl| sl.job == job) {
                *s = None;
                freed += 1;
            }
        }
        freed
    }

    /// Global batch `B_j = Σ_i b_j^i` (Eq 2). Zero if the job is not placed.
    #[must_use]
    pub fn global_batch(&self, job: JobId) -> u32 {
        self.slots
            .iter()
            .flatten()
            .filter(|s| s.job == job)
            .map(|s| s.local_batch)
            .sum()
    }

    /// GPU count `c_j = Σ_i min(1, b_j^i)` (Eq 2).
    #[must_use]
    pub fn gpu_count(&self, job: JobId) -> u32 {
        self.slots.iter().flatten().filter(|s| s.job == job).count() as u32
    }

    /// The set of GPUs hosting `job`.
    #[must_use]
    pub fn placement(&self, job: JobId) -> Placement {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.filter(|sl| sl.job == job).map(|_| GpuId(i as u32)))
            .collect()
    }

    /// Local batches of `job` in GPU-id order (alongside
    /// [`Schedule::placement`], this is what the throughput model consumes).
    #[must_use]
    pub fn local_batches(&self, job: JobId) -> Vec<u32> {
        self.slots
            .iter()
            .flatten()
            .filter(|s| s.job == job)
            .map(|s| s.local_batch)
            .collect()
    }

    /// All running jobs with their `(global batch, gpu count)`, sorted by id.
    #[must_use]
    pub fn running_jobs(&self) -> BTreeMap<JobId, (u32, u32)> {
        self.job_totals().into_iter().collect()
    }

    /// [`Schedule::running_jobs`] as a vector sorted by job id, built
    /// without a tree.
    #[must_use]
    pub fn job_totals(&self) -> Vec<(JobId, (u32, u32))> {
        self.fold_jobs(|(batch, gpus): &mut (u32, u32), _, slot| {
            *batch += slot.local_batch;
            *gpus += 1;
        })
    }

    /// Folds every placed worker, in GPU-id order, into its job's
    /// accumulator (started from `T::default()`), returning the jobs
    /// sorted by id. One slot walk with one binary search per run of
    /// equal jobs.
    pub fn fold_jobs<T: Default>(
        &self,
        mut add: impl FnMut(&mut T, GpuId, Slot),
    ) -> Vec<(JobId, T)> {
        let mut jobs: Vec<(JobId, T)> = Vec::new();
        let mut at = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = *slot else { continue };
            if jobs.get(at).is_none_or(|e| e.0 != slot.job) {
                at = jobs
                    .binary_search_by_key(&slot.job, |e| e.0)
                    .unwrap_or_else(|k| {
                        jobs.insert(k, (slot.job, T::default()));
                        k
                    });
            }
            add(&mut jobs[at].1, GpuId(i as u32), slot);
        }
        jobs
    }

    /// Whether a job holds at least one GPU.
    #[must_use]
    pub fn is_running(&self, job: JobId) -> bool {
        self.slots.iter().flatten().any(|s| s.job == job)
    }

    /// GPUs with no worker.
    #[must_use]
    pub fn idle_gpus(&self) -> Vec<GpuId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| GpuId(i as u32))
            .collect()
    }

    /// Number of idle GPUs.
    #[must_use]
    pub fn idle_count(&self) -> u32 {
        self.slots.iter().filter(|s| s.is_none()).count() as u32
    }

    /// Raw slot view (one entry per GPU).
    #[must_use]
    pub fn slots(&self) -> &[Option<Slot>] {
        &self.slots
    }

    /// FNV-1a signature of one job's configuration in this schedule,
    /// folded over the job's workers in GPU-id order. `None` if the job
    /// is not placed. Two schedules that give `job` the same placement
    /// *shape* and per-GPU batches produce equal signatures (see
    /// [`JobSignature`]), so the pair (plus the job id) keys throughput
    /// memoisation. Hash collisions between distinct configurations are
    /// possible in principle but negligible at 2×64 bits.
    #[must_use]
    pub fn job_signature(&self, job: JobId, gpus_per_node: u32) -> Option<JobSignature> {
        let mut sig = SignatureBuilder::new(gpus_per_node);
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(slot) = s.filter(|sl| sl.job == job) {
                sig.push(GpuId(i as u32), slot.local_batch);
            }
        }
        sig.finish()
    }

    /// Signatures of every placed job, gathered in a single pass over the
    /// slots. Produces exactly [`Schedule::job_signature`] per job (both
    /// fold slots in GPU-id order) but costs `O(gpus)` for *all* jobs
    /// instead of `O(gpus)` each — the difference that makes cached
    /// candidate scoring cheaper than re-evaluating the throughput model.
    #[must_use]
    pub fn job_signatures(&self, gpus_per_node: u32) -> BTreeMap<JobId, JobSignature> {
        let mut map: BTreeMap<JobId, SignatureBuilder> = BTreeMap::new();
        // Fold contiguous runs of the same job with a single map lookup:
        // reordered schedules pack each job's workers together, so this
        // is ~one lookup per job. The fold itself still walks slots in
        // GPU-id order, matching `job_signature` exactly even when a job
        // is split across several runs.
        let mut i = 0;
        while i < self.slots.len() {
            let Some(first) = self.slots[i] else {
                i += 1;
                continue;
            };
            let sig = map
                .entry(first.job)
                .or_insert_with(|| SignatureBuilder::new(gpus_per_node));
            while let Some(Some(slot)) = self.slots.get(i) {
                if slot.job != first.job {
                    break;
                }
                sig.push(GpuId(i as u32), slot.local_batch);
                i += 1;
            }
        }
        map.into_iter()
            .filter_map(|(job, sig)| Some((job, sig.finish()?)))
            .collect()
    }

    /// Packs the workers of each job contiguously, in order of each job's
    /// first occurrence — the *reorder* evolution operation (§3.2.2,
    /// Figure 10). Idle slots move to the end.
    #[must_use]
    pub fn reordered(&self) -> Schedule {
        self.reordered_with_layout().0
    }

    /// [`Schedule::reordered`], additionally returning the packed layout:
    /// one contiguous [`JobRun`] per job, in pack (first-occurrence)
    /// order. Delta-scoring consumes the layout to rebuild every job's
    /// signature in `O(len_j)` without re-walking the whole schedule.
    #[must_use]
    pub fn reordered_with_layout(&self) -> (Schedule, Vec<JobRun>) {
        // Pass 1: each job's rank in first-occurrence order and its
        // worker count, one map lookup per run of equal jobs; every slot
        // remembers its job's rank so pass 2 needs no lookup at all.
        let mut rank_of: BTreeMap<JobId, usize> = BTreeMap::new();
        let mut layout: Vec<JobRun> = Vec::new();
        let mut ranks: Vec<usize> = Vec::with_capacity(self.slots.len());
        let mut prev: Option<(JobId, usize)> = None;
        for slot in self.slots.iter().flatten() {
            let rank = match prev {
                Some((job, rank)) if job == slot.job => rank,
                _ => *rank_of.entry(slot.job).or_insert_with(|| {
                    layout.push(JobRun {
                        job: slot.job,
                        start: 0,
                        len: 0,
                    });
                    layout.len() - 1
                }),
            };
            layout[rank].len += 1;
            ranks.push(rank);
            prev = Some((slot.job, rank));
        }
        let mut next = 0;
        for run in &mut layout {
            run.start = next;
            next += run.len;
        }
        // Pass 2: every worker moves to its job's block, in slot order.
        let mut fill: Vec<u32> = layout.iter().map(|run| run.start).collect();
        let mut out = Schedule::empty(self.num_gpus());
        for (slot, rank) in self.slots.iter().flatten().zip(ranks) {
            out.slots[fill[rank] as usize] = Some(*slot);
            fill[rank] += 1;
        }
        (out, layout)
    }

    /// Re-maps this schedule's workers to minimise disruption relative to
    /// a deployed schedule: every job whose configuration (multiset of
    /// local batches) is unchanged keeps exactly its old GPUs; all other
    /// workers pack into the remaining GPUs in first-occurrence order.
    ///
    /// The evolutionary search reorders candidates for locality, which
    /// would otherwise migrate every worker on every deployment; alignment
    /// makes unchanged jobs genuinely free to "re-deploy".
    #[must_use]
    pub fn aligned_with(&self, deployed: &Schedule) -> Schedule {
        assert_eq!(self.num_gpus(), deployed.num_gpus());
        let n = self.num_gpus();
        let mut out = Schedule::empty(n);
        let mut taken = vec![false; n as usize];
        let mut kept: Vec<JobId> = Vec::new();

        // Phase 1: unchanged jobs keep their old placement.
        for job in self.running_jobs().keys() {
            let mut old: Vec<u32> = deployed.local_batches(*job);
            let mut new: Vec<u32> = self.local_batches(*job);
            old.sort_unstable();
            new.sort_unstable();
            if old.is_empty() || old != new {
                continue;
            }
            for (i, slot) in deployed.slots().iter().enumerate() {
                if let Some(s) = slot.filter(|s| s.job == *job) {
                    out.slots[i] = Some(s);
                    taken[i] = true;
                }
            }
            kept.push(*job);
        }

        // Phase 2: everything else packs into the free GPUs in this
        // schedule's (already reordered) occurrence order.
        let mut free = (0..n as usize).filter(|&i| !taken[i]);
        for slot in self.slots.iter().flatten() {
            if kept.contains(&slot.job) {
                continue;
            }
            let Some(i) = free.next() else { break };
            out.slots[i] = Some(*slot);
        }
        out
    }

    /// Whether deploying `self` over `deployed` would disturb any job that
    /// is currently running: true when every running job of `deployed`
    /// keeps the identical slots in `self`.
    #[must_use]
    pub fn is_non_disruptive_over(&self, deployed: &Schedule) -> bool {
        deployed.running_jobs().keys().all(|job| {
            self.slots.iter().zip(deployed.slots()).all(|(new, old)| {
                let old_here = old.filter(|s| s.job == *job);
                let new_here = new.filter(|s| s.job == *job);
                old_here == new_here
            })
        })
    }

    /// Checks structural validity against a cluster and per-job local batch
    /// limits. Returns a description of the first violation.
    ///
    /// `max_local_batch(job)` should come from the job's model profile.
    pub fn validate(
        &self,
        spec: &ClusterSpec,
        mut max_local_batch: impl FnMut(JobId) -> u32,
    ) -> Result<(), String> {
        if self.num_gpus() != spec.total_gpus() {
            return Err(format!(
                "schedule has {} slots for a {}-GPU cluster",
                self.num_gpus(),
                spec.total_gpus()
            ));
        }
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(slot) = s {
                let limit = max_local_batch(slot.job);
                if slot.local_batch > limit {
                    return Err(format!(
                        "GPU {i}: job {} local batch {} exceeds memory limit {limit}",
                        slot.job, slot.local_batch
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn j(n: u64) -> JobId {
        JobId(n)
    }

    #[test]
    fn empty_schedule_is_all_idle() {
        let s = Schedule::empty(8);
        assert_eq!(s.idle_count(), 8);
        assert!(s.running_jobs().is_empty());
        assert_eq!(s.global_batch(j(1)), 0);
        assert_eq!(s.gpu_count(j(1)), 0);
        assert!(!s.is_running(j(1)));
    }

    #[test]
    fn eq2_derivations() {
        let mut s = Schedule::empty(4);
        s.assign(GpuId(0), j(1), 64);
        s.assign(GpuId(1), j(1), 64);
        s.assign(GpuId(2), j(2), 128);
        assert_eq!(s.global_batch(j(1)), 128);
        assert_eq!(s.gpu_count(j(1)), 2);
        assert_eq!(s.global_batch(j(2)), 128);
        assert_eq!(s.gpu_count(j(2)), 1);
        assert_eq!(s.idle_count(), 1);
        assert_eq!(s.idle_gpus(), vec![GpuId(3)]);
    }

    #[test]
    fn exclusive_gpu_by_construction() {
        // Assigning a second job to the same GPU replaces the first — a
        // GPU can never host two workers (Eq 4).
        let mut s = Schedule::empty(2);
        s.assign(GpuId(0), j(1), 32);
        s.assign(GpuId(0), j(2), 64);
        assert_eq!(s.gpu_count(j(1)), 0);
        assert_eq!(s.gpu_count(j(2)), 1);
    }

    #[test]
    fn evict_frees_all_workers() {
        let mut s = Schedule::empty(4);
        s.assign(GpuId(0), j(1), 32);
        s.assign(GpuId(2), j(1), 32);
        s.assign(GpuId(3), j(2), 32);
        assert_eq!(s.evict(j(1)), 2);
        assert!(!s.is_running(j(1)));
        assert!(s.is_running(j(2)));
    }

    #[test]
    fn placement_is_sorted() {
        let mut s = Schedule::empty(8);
        s.assign(GpuId(5), j(1), 32);
        s.assign(GpuId(1), j(1), 32);
        let p = s.placement(j(1));
        assert_eq!(p.gpus(), &[GpuId(1), GpuId(5)]);
        assert_eq!(s.local_batches(j(1)), vec![32, 32]);
    }

    #[test]
    fn reorder_packs_by_first_occurrence() {
        // Figure 10: [J1, J2, J1, _, J2, J3] -> [J1, J1, J2, J2, J3, _].
        let mut s = Schedule::empty(6);
        s.assign(GpuId(0), j(1), 32);
        s.assign(GpuId(1), j(2), 16);
        s.assign(GpuId(2), j(1), 32);
        s.assign(GpuId(4), j(2), 16);
        s.assign(GpuId(5), j(3), 8);
        let r = s.reordered();
        let got: Vec<Option<u64>> = r.slots().iter().map(|s| s.map(|sl| sl.job.0)).collect();
        assert_eq!(got, vec![Some(1), Some(1), Some(2), Some(2), Some(3), None]);
        // Batches travel with their workers; totals unchanged.
        assert_eq!(r.global_batch(j(1)), 64);
        assert_eq!(r.global_batch(j(2)), 32);
        assert_eq!(r.global_batch(j(3)), 8);
    }

    #[test]
    fn reorder_improves_locality() {
        let spec = ClusterSpec::new(2, 4);
        let mut s = Schedule::empty(8);
        // Job 1 scattered across both nodes.
        s.assign(GpuId(0), j(1), 32);
        s.assign(GpuId(2), j(1), 32);
        s.assign(GpuId(5), j(1), 32);
        s.assign(GpuId(7), j(1), 32);
        let before = s.placement(j(1)).locality_score(&spec);
        let after = s.reordered().placement(j(1)).locality_score(&spec);
        assert!(after > before, "before={before}, after={after}");
        assert_eq!(s.reordered().placement(j(1)).nodes_spanned(&spec), 1);
    }

    #[test]
    fn validate_checks_size_and_memory() {
        let spec = ClusterSpec::new(1, 4);
        let mut s = Schedule::empty(4);
        s.assign(GpuId(0), j(1), 512);
        assert!(s.validate(&spec, |_| 256).is_err());
        assert!(s.validate(&spec, |_| 512).is_ok());
        let wrong_size = Schedule::empty(8);
        assert!(wrong_size.validate(&spec, |_| 512).is_err());
    }

    #[test]
    fn running_jobs_aggregates() {
        let mut s = Schedule::empty(4);
        s.assign(GpuId(0), j(5), 64);
        s.assign(GpuId(1), j(5), 32);
        s.assign(GpuId(2), j(9), 16);
        let rj = s.running_jobs();
        assert_eq!(rj[&j(5)], (96, 2));
        assert_eq!(rj[&j(9)], (16, 1));
    }

    #[test]
    #[should_panic(expected = "positive batch")]
    fn zero_batch_assignment_rejected() {
        let mut s = Schedule::empty(1);
        s.assign(GpuId(0), j(1), 0);
    }

    #[test]
    fn job_signature_distinguishes_configurations() {
        // 8 GPUs on a 2×4 cluster throughout (gpus_per_node = 4).
        const GPN: u32 = 4;
        let mut a = Schedule::empty(8);
        a.assign(GpuId(0), j(1), 64);
        a.assign(GpuId(1), j(1), 64);
        a.assign(GpuId(2), j(2), 32);

        // Same configuration for job 1 in a different schedule.
        let mut b = Schedule::empty(8);
        b.assign(GpuId(0), j(1), 64);
        b.assign(GpuId(1), j(1), 64);
        b.assign(GpuId(5), j(9), 16);
        assert_eq!(a.job_signature(j(1), GPN), b.job_signature(j(1), GPN));

        // Moved across a node boundary: shape (and hash) changes.
        let mut spanning = Schedule::empty(8);
        spanning.assign(GpuId(3), j(1), 64);
        spanning.assign(GpuId(4), j(1), 64);
        let sa = a.job_signature(j(1), GPN).unwrap();
        let ss = spanning.job_signature(j(1), GPN).unwrap();
        assert_ne!(sa.placement, ss.placement);
        assert_eq!(sa.batches, ss.batches);

        // Moved within a node keeping the same shape: signatures are
        // deliberately equal — the throughput model reads a placement
        // only through (gpus, nodes spanned, runs per node), so the
        // configurations are interchangeable for memoisation.
        let mut shifted = Schedule::empty(8);
        shifted.assign(GpuId(2), j(1), 64);
        shifted.assign(GpuId(3), j(1), 64);
        assert_eq!(a.job_signature(j(1), GPN), shifted.job_signature(j(1), GPN));

        // Fragmented on one node: runs-per-node rises, shape changes.
        let mut fragmented = Schedule::empty(8);
        fragmented.assign(GpuId(0), j(1), 64);
        fragmented.assign(GpuId(2), j(1), 64);
        let sf = fragmented.job_signature(j(1), GPN).unwrap();
        assert_ne!(sa.placement, sf.placement);

        // Changed batch split: batch hash changes.
        let mut resized = Schedule::empty(8);
        resized.assign(GpuId(0), j(1), 32);
        resized.assign(GpuId(1), j(1), 96);
        let sr = resized.job_signature(j(1), GPN).unwrap();
        assert_eq!(sa.placement, sr.placement);
        assert_ne!(sa.batches, sr.batches);

        // An absent job has no signature.
        assert_eq!(a.job_signature(j(77), GPN), None);
    }

    #[test]
    fn job_signatures_gather_matches_per_job_queries() {
        const GPN: u32 = 4;
        let mut s = Schedule::empty(8);
        s.assign(GpuId(0), j(1), 64);
        s.assign(GpuId(2), j(2), 32);
        s.assign(GpuId(3), j(1), 128);
        s.assign(GpuId(7), j(5), 16);

        let sigs = s.job_signatures(GPN);
        assert_eq!(sigs.len(), 3);
        for (&job, sig) in &sigs {
            assert_eq!(
                Some(*sig),
                s.job_signature(job, GPN),
                "gathered signature diverges for {job}"
            );
            assert_eq!(sig.gpus, s.gpu_count(job));
        }
        assert!(Schedule::empty(8).job_signatures(GPN).is_empty());
    }

    #[test]
    fn shape_hash_matches_placement_metrics() {
        // The incremental ShapeAcc walk must agree with the Placement
        // metrics the throughput model actually reads, for scattered and
        // multi-node placements alike.
        let spec = ClusterSpec::new(4, 4);
        const GPN: u32 = 4;
        for gpus in [
            vec![0u32],
            vec![0, 1, 2, 3],
            vec![0, 2],
            vec![0, 1, 3],
            vec![3, 4],
            vec![0, 5, 10, 15],
            vec![0, 1, 4, 8, 9, 10],
            vec![2, 3, 4, 5, 9, 11, 13],
        ] {
            let mut s = Schedule::empty(16);
            for &g in &gpus {
                s.assign(GpuId(g), j(1), 8);
            }
            let sig = s.job_signature(j(1), GPN).unwrap();
            let p = Placement::new(gpus.iter().map(|&g| GpuId(g)).collect());
            let expect = JobSignature::placement_shape_hash(
                p.len() as u32,
                p.nodes_spanned(&spec) as u32,
                p.max_runs_per_node(&spec) as u32,
            );
            assert_eq!(sig.placement, expect, "shape hash diverges for {gpus:?}");
            assert_eq!(
                sig.batches,
                JobSignature::batches_hash(s.local_batches(j(1)))
            );
        }
    }

    #[test]
    fn contiguous_shape_hash_matches_walk() {
        const GPN: u32 = 4;
        for (start, len) in [(0u32, 1u32), (0, 4), (2, 3), (3, 2), (1, 7), (4, 4)] {
            let mut s = Schedule::empty(16);
            for g in start..start + len {
                s.assign(GpuId(g), j(1), 8);
            }
            assert_eq!(
                s.job_signature(j(1), GPN).unwrap().placement,
                JobSignature::contiguous_shape_hash(start, len, GPN),
                "contiguous fast path diverges for start={start} len={len}"
            );
        }
    }

    /// The reorder before it became one pass: first-occurrence order by
    /// `contains`, then one slot walk per job.
    fn reordered_by_rescan(s: &Schedule) -> (Schedule, Vec<JobRun>) {
        let mut order: Vec<JobId> = Vec::new();
        for slot in s.slots.iter().flatten() {
            if !order.contains(&slot.job) {
                order.push(slot.job);
            }
        }
        let mut out = Schedule::empty(s.num_gpus());
        let mut layout = Vec::new();
        let mut next = 0usize;
        for job in order {
            let start = next as u32;
            for slot in s.slots.iter().flatten().filter(|sl| sl.job == job) {
                out.slots[next] = Some(*slot);
                next += 1;
            }
            layout.push(JobRun {
                job,
                start,
                len: next as u32 - start,
            });
        }
        (out, layout)
    }

    fn genome(slots: &[Option<(u64, u32)>]) -> Schedule {
        let mut s = Schedule::empty(slots.len() as u32);
        for (i, slot) in slots.iter().enumerate() {
            if let Some((job, batch)) = *slot {
                s.assign(GpuId(i as u32), j(job), batch);
            }
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass reorder packs exactly as the rescanning one did.
        #[test]
        fn one_pass_reorder_matches_rescan(
            slots in proptest::collection::vec(
                proptest::option::of((0u64..7, 1u32..64)), 1..40usize),
        ) {
            let s = genome(&slots);
            prop_assert_eq!(s.reordered_with_layout(), reordered_by_rescan(&s));
        }

        /// Job totals agree with per-job queries and come sorted by id.
        #[test]
        fn job_totals_match_per_job_queries(
            slots in proptest::collection::vec(
                proptest::option::of((0u64..7, 1u32..64)), 1..40usize),
        ) {
            let s = genome(&slots);
            let totals = s.job_totals();
            prop_assert!(totals.windows(2).all(|w| w[0].0 < w[1].0));
            for &(job, (batch, gpus)) in &totals {
                prop_assert_eq!(batch, s.global_batch(job));
                prop_assert_eq!(gpus, s.gpu_count(job));
            }
            prop_assert_eq!(totals.len(), s.running_jobs().len());
        }

        /// A signature built from a sorted worker list equals the one
        /// the schedule walk folds for the same placement.
        #[test]
        fn signature_builder_matches_job_signature(
            workers in proptest::collection::vec(proptest::option::of(1u32..512), 32usize),
            gpn in 1u32..9,
        ) {
            let mut s = Schedule::empty(32);
            let mut sig = SignatureBuilder::new(gpn);
            for (g, b) in workers.iter().enumerate() {
                if let Some(b) = *b {
                    s.assign(GpuId(g as u32), j(1), b);
                    sig.push(GpuId(g as u32), b);
                }
            }
            prop_assert_eq!(sig.finish(), s.job_signature(j(1), gpn));
        }
    }

    #[test]
    fn reordered_layout_describes_packed_blocks() {
        let mut s = Schedule::empty(6);
        s.assign(GpuId(0), j(1), 32);
        s.assign(GpuId(1), j(2), 16);
        s.assign(GpuId(2), j(1), 32);
        s.assign(GpuId(4), j(2), 16);
        s.assign(GpuId(5), j(3), 8);
        let (r, layout) = s.reordered_with_layout();
        assert_eq!(
            layout,
            vec![
                JobRun {
                    job: j(1),
                    start: 0,
                    len: 2
                },
                JobRun {
                    job: j(2),
                    start: 2,
                    len: 2
                },
                JobRun {
                    job: j(3),
                    start: 4,
                    len: 1
                },
            ]
        );
        // Each block's signature from the layout matches a fresh walk.
        const GPN: u32 = 4;
        for run in &layout {
            let sig = r.job_signature(run.job, GPN).unwrap();
            assert_eq!(
                sig.placement,
                JobSignature::contiguous_shape_hash(run.start, run.len, GPN)
            );
            assert_eq!(sig.gpus, run.len);
        }
    }

    #[test]
    fn alignment_keeps_unchanged_jobs_in_place() {
        // Deployed: job1 on GPUs 2,3; job2 on GPU 5.
        let mut deployed = Schedule::empty(8);
        deployed.assign(GpuId(2), j(1), 64);
        deployed.assign(GpuId(3), j(1), 64);
        deployed.assign(GpuId(5), j(2), 32);
        // Candidate (reordered): job1 moved to GPUs 0,1 with the same
        // batches; job2 grown to two GPUs; job3 new.
        let mut cand = Schedule::empty(8);
        cand.assign(GpuId(0), j(1), 64);
        cand.assign(GpuId(1), j(1), 64);
        cand.assign(GpuId(2), j(2), 32);
        cand.assign(GpuId(3), j(2), 32);
        cand.assign(GpuId(4), j(3), 16);

        let aligned = cand.aligned_with(&deployed);
        // job1 unchanged -> stays on 2,3.
        assert_eq!(aligned.placement(j(1)).gpus(), &[GpuId(2), GpuId(3)]);
        // job2 changed -> moves, keeps its new config.
        assert_eq!(aligned.global_batch(j(2)), 64);
        assert_eq!(aligned.gpu_count(j(2)), 2);
        assert_eq!(aligned.global_batch(j(3)), 16);
        // Totals preserved.
        assert_eq!(aligned.idle_count(), cand.idle_count());
    }

    #[test]
    fn alignment_handles_conflicting_claims() {
        // Deployed: job1 on GPU 0. Candidate keeps job1's config but also
        // places job2 on GPU 0; alignment gives job1 its old GPU and finds
        // another for job2.
        let mut deployed = Schedule::empty(2);
        deployed.assign(GpuId(0), j(1), 8);
        let mut cand = Schedule::empty(2);
        cand.assign(GpuId(0), j(2), 4);
        cand.assign(GpuId(1), j(1), 8);
        let aligned = cand.aligned_with(&deployed);
        assert_eq!(aligned.placement(j(1)).gpus(), &[GpuId(0)]);
        assert_eq!(aligned.gpu_count(j(2)), 1);
        assert!(!aligned.placement(j(2)).contains(GpuId(0)));
    }

    #[test]
    fn non_disruptive_detection() {
        let mut deployed = Schedule::empty(4);
        deployed.assign(GpuId(0), j(1), 8);
        // Filling an idle GPU is non-disruptive.
        let mut fill = deployed.clone();
        fill.assign(GpuId(1), j(2), 8);
        assert!(fill.is_non_disruptive_over(&deployed));
        // Moving job1 is disruptive.
        let mut moved = Schedule::empty(4);
        moved.assign(GpuId(2), j(1), 8);
        assert!(!moved.is_non_disruptive_over(&deployed));
        // Evicting job1 is disruptive.
        let empty = Schedule::empty(4);
        assert!(!empty.is_non_disruptive_over(&deployed));
    }
}
