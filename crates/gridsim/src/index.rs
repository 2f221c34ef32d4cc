//! Feeder-style dispatch index: capability-class matchmaking.
//!
//! The BOINC feeder keeps a small in-memory window of sendable work so the
//! scheduler never scans the whole workunit table per request. This module
//! applies the same idea to the grid-level matchmaker: resources are
//! summarised into compact capability masks (platform bits, interned
//! software bits, MPI flag, memory per slot), and jobs are bucketed into
//! *capability classes* — one class per distinct requirement signature. A
//! class caches the list of resources that pass every *static* matchmaking
//! filter, so a scheduling pass only walks the statically-eligible candidate
//! set instead of filtering every resource per job.
//!
//! Determinism/identity argument: the static mask checks are *sound* — they
//! never drop a resource that [`crate::scheduler::matches`] would accept —
//! and the dispatch fast path still runs the full `matches` filter on every
//! class member (dynamic state: MDS liveness, blacklist, slot counts,
//! stability downgrades, stage-in estimates). A walk over the class
//! therefore ranks exactly the set of resources a full scan would rank,
//! with the same scores and the same tie-break
//! ([`crate::scheduler::choose_in_table`]), so decisions are bit-identical. Where
//! a mask is coarse (the software-bit overflow bucket), the class is a
//! *superset* and the residual `matches` call restores exactness.
//!
//! The index summarises only static [`ResourceSpec`] capabilities, which are
//! fixed after [`crate::Grid::new`]; dynamic membership (MDS offline,
//! outages, blacklisting, volunteer churn) is handled incrementally
//! elsewhere — the scheduling pass keeps an id-indexed view table where
//! offline/blacklisted entries are `None` (an O(1) skip per class member),
//! and the BOINC pool maintains its own idle-host set in
//! [`crate::boinc::BoincSim`]. The index is derived state: it is never
//! serialized and is rebuilt from the resource list on snapshot restore.

use std::collections::HashMap;

use crate::job::JobSpec;
use crate::platform::Platform;
use crate::resource::ResourceSpec;

/// Software names beyond this many distinct interned ids share one overflow
/// bit; classes touching it become supersets (still sound, see module docs).
const SOFTWARE_BITS: u32 = 63;

/// Compact static capabilities of one resource.
#[derive(Debug, Clone, Copy)]
struct ResourceCaps {
    /// One bit per (arch, os) pair (9 possible platforms).
    platform_mask: u16,
    /// One bit per interned software name (bit 63 = overflow bucket).
    software_mask: u64,
    mpi_capable: bool,
    memory_per_slot: u64,
}

/// A job's requirement signature: two jobs with equal keys are
/// indistinguishable to every static matchmaking filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ClassKey {
    platform_mask: u16,
    software_mask: u64,
    needs_mpi: bool,
    /// `slots_required > 1` implies the resource must be MPI-capable (the
    /// slot-count comparison itself is dynamic and stays in `matches`).
    multi_slot: bool,
    min_memory_bytes: u64,
}

fn platform_bit(p: Platform) -> u16 {
    let arch = match p.arch {
        crate::platform::Arch::I686 => 0u16,
        crate::platform::Arch::X86_64 => 1,
        crate::platform::Arch::Ppc => 2,
    };
    let os = match p.os {
        crate::platform::Os::Linux => 0u16,
        crate::platform::Os::Windows => 1,
        crate::platform::Os::MacOs => 2,
    };
    1 << (arch * 3 + os)
}

fn platform_mask(platforms: &[Platform]) -> u16 {
    platforms.iter().fold(0, |m, &p| m | platform_bit(p))
}

/// The dispatch index: per-resource capability masks plus a lazily-populated
/// cache of capability classes.
#[derive(Debug, Default)]
pub struct DispatchIndex {
    /// Software name → interned bit index (clamped to the overflow bit).
    software_ids: HashMap<String, u32>,
    caps: Vec<ResourceCaps>,
    classes: HashMap<ClassKey, Vec<usize>>,
}

impl DispatchIndex {
    /// Build the index over a fixed resource list (ids are positions).
    pub fn new(resources: &[ResourceSpec]) -> DispatchIndex {
        let mut idx = DispatchIndex::default();
        for spec in resources {
            let mut software_mask = 0u64;
            for name in &spec.software {
                let next = (idx.software_ids.len() as u32).min(SOFTWARE_BITS);
                let bit = *idx.software_ids.entry(name.clone()).or_insert(next);
                software_mask |= 1 << bit;
            }
            idx.caps.push(ResourceCaps {
                platform_mask: platform_mask(&spec.platforms),
                software_mask,
                mpi_capable: spec.mpi_capable,
                memory_per_slot: spec.memory_per_slot,
            });
        }
        idx
    }

    /// The job's requirement signature, or `None` when some static filter
    /// can never pass (a software dependency no resource advertises).
    fn key_for(&self, job: &JobSpec) -> Option<ClassKey> {
        let mut software_mask = 0u64;
        for dep in &job.software_deps {
            // Unknown dependency: no resource advertises it, so `matches`
            // rejects everything with `Software` — the class is empty.
            let bit = *self.software_ids.get(dep)?;
            software_mask |= 1 << bit;
        }
        Some(ClassKey {
            platform_mask: platform_mask(&job.platforms),
            software_mask,
            needs_mpi: job.needs_mpi,
            multi_slot: job.slots_required > 1,
            min_memory_bytes: job.min_memory_bytes,
        })
    }

    fn build_class(caps: &[ResourceCaps], key: &ClassKey) -> Vec<usize> {
        caps.iter()
            .enumerate()
            .filter(|(_, c)| {
                key.platform_mask & c.platform_mask != 0
                    && key.min_memory_bytes <= c.memory_per_slot
                    && (!(key.needs_mpi || key.multi_slot) || c.mpi_capable)
                    && key.software_mask & c.software_mask == key.software_mask
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Resource ids (ascending) passing every static filter for `job`.
    ///
    /// Sound, not exact: callers must still run the dynamic
    /// [`crate::scheduler::matches`] filters on each member.
    pub fn eligible(&mut self, job: &JobSpec) -> &[usize] {
        match self.key_for(job) {
            None => &[],
            Some(key) => {
                if !self.classes.contains_key(&key) {
                    let class = Self::build_class(&self.caps, &key);
                    self.classes.insert(key, class);
                }
                &self.classes[&key]
            }
        }
    }

    /// Number of distinct capability classes materialised so far.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mds::ResourceState;
    use crate::resource::{ResourceKind, ResourceSpec};
    use crate::scheduler::{matches, ResourceView, SchedulerPolicy};
    use crate::ResourceId;

    fn spec(name: &str, platforms: Vec<Platform>, software: Vec<&str>, mpi: bool) -> ResourceSpec {
        ResourceSpec {
            name: name.into(),
            kind: ResourceKind::CondorPool,
            slots: 8,
            speed: 1.0,
            memory_per_slot: 2 << 30,
            platforms,
            mpi_capable: mpi,
            software: software.into_iter().map(String::from).collect(),
            stable: true,
            mean_hours_between_interruptions: None,
            outages: None,
            site: None,
        }
    }

    fn view(i: usize, s: &ResourceSpec) -> ResourceView {
        ResourceView::new(
            ResourceId(i),
            s,
            ResourceState {
                total_slots: s.slots,
                free_slots: s.slots,
                queued_jobs: 0,
            },
            1.0,
        )
    }

    #[test]
    fn class_agrees_with_static_filters() {
        let specs = vec![
            spec("linux", vec![Platform::LINUX_X64], vec!["gromacs"], false),
            spec("mac", vec![Platform::MAC_X64], vec![], false),
            spec(
                "mpi",
                vec![Platform::LINUX_X64],
                vec!["gromacs", "mpich"],
                true,
            ),
        ];
        let mut idx = DispatchIndex::new(&specs);
        let mut job = JobSpec::simple(1, 100.0);
        job.platforms = vec![Platform::LINUX_X64];
        job.software_deps = vec!["gromacs".into()];
        assert_eq!(idx.eligible(&job), &[0, 2]);
        job.needs_mpi = true;
        assert_eq!(idx.eligible(&job), &[2]);
        job.software_deps = vec!["does-not-exist".into()];
        assert!(idx.eligible(&job).is_empty());
        assert!(idx.class_count() >= 2);
    }

    #[test]
    fn classes_are_sound_supersets_of_matches() {
        // Exhaustive-ish cross product: every (job, resource) pair where the
        // full `matches` filter accepts must appear in the class.
        let specs = vec![
            spec(
                "a",
                vec![Platform::LINUX_X64, Platform::LINUX_X86],
                vec!["s1"],
                false,
            ),
            spec("b", vec![Platform::WINDOWS_X64], vec!["s1", "s2"], true),
            spec("c", Platform::ALL_COMMON.to_vec(), vec![], true),
            spec("d", vec![], vec!["s3"], false),
        ];
        let mut idx = DispatchIndex::new(&specs);
        let policy = SchedulerPolicy::default();
        let plat_choices: Vec<Vec<Platform>> = vec![
            vec![Platform::LINUX_X64],
            vec![Platform::MAC_PPC],
            Platform::ALL_COMMON.to_vec(),
            vec![],
        ];
        let dep_choices: Vec<Vec<String>> =
            vec![vec![], vec!["s1".into()], vec!["s2".into(), "s3".into()]];
        let mut id = 0;
        for platforms in &plat_choices {
            for deps in &dep_choices {
                for needs_mpi in [false, true] {
                    for mem in [1u64 << 30, 8 << 30] {
                        id += 1;
                        let mut job = JobSpec::simple(id, 60.0);
                        job.platforms = platforms.clone();
                        job.software_deps = deps.clone();
                        job.needs_mpi = needs_mpi;
                        job.min_memory_bytes = mem;
                        let class: Vec<usize> = idx.eligible(&job).to_vec();
                        for (i, s) in specs.iter().enumerate() {
                            let ok = matches(&job, &view(i, s), &policy).is_ok();
                            assert!(
                                !ok || class.contains(&i),
                                "job {id}: matches accepts resource {i} but class {class:?} dropped it"
                            );
                        }
                    }
                }
            }
        }
    }
}
