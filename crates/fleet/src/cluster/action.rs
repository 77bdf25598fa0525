//! Cluster-level scheduling actions.
//!
//! The per-host plane keeps its two-verb [`stayaway_telemetry::Action`]
//! vocabulary (pause/resume); the cluster plane gets its own enum for the
//! decisions only an orchestrator can take. Keeping the enums separate
//! means host policies cannot accidentally emit placement verbs and the
//! telemetry codec (traces, replay) is untouched.

use serde::{Deserialize, Serialize};

/// One cluster-scheduler decision, applied at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum ClusterAction {
    /// Place queued job `job` on host `host` (cold attach; its carried
    /// backlog is re-routed there).
    Admit {
        /// Job id (index into the scenario's job list).
        job: usize,
        /// Destination host index.
        host: usize,
    },
    /// Keep job `job` in the admission queue: no host currently has the
    /// capacity to take it.
    Queue {
        /// Job id.
        job: usize,
    },
    /// Postpone job `job` although capacity exists — the policy judges
    /// every feasible placement too risky for the sensitive tenants.
    Defer {
        /// Job id.
        job: usize,
    },
    /// Move job `job` from host `from` to host `to`: detach (aborting
    /// in-flight invocations, carrying queued requests), cold-attach at
    /// the destination, re-route the carried work.
    Migrate {
        /// Job id.
        job: usize,
        /// Current host index.
        from: usize,
        /// Destination host index.
        to: usize,
    },
}

impl ClusterAction {
    /// The job this action concerns.
    pub(crate) fn job(&self) -> usize {
        match self {
            ClusterAction::Admit { job, .. }
            | ClusterAction::Queue { job }
            | ClusterAction::Defer { job }
            | ClusterAction::Migrate { job, .. } => *job,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_round_trip_through_serde() {
        for a in [
            ClusterAction::Admit { job: 1, host: 2 },
            ClusterAction::Queue { job: 3 },
            ClusterAction::Defer { job: 4 },
            ClusterAction::Migrate {
                job: 5,
                from: 0,
                to: 1,
            },
        ] {
            let text = serde_json::to_string(&a).unwrap();
            let back: ClusterAction = serde_json::from_str(&text).unwrap();
            assert_eq!(back, a);
            assert!(back.job() >= 1);
        }
    }
}
