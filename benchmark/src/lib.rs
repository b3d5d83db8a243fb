//! The repo's benchmark: five campaign workloads driven through the
//! public APIs of `mirage-core`, `mirage-sim`, `mirage-report` and
//! `mirage-cluster` from outside, gated on the fastest of the timed
//! repeats, with an outside-in per-layer trace. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
#[allow(missing_docs)]
pub mod names;
pub mod trace;
pub mod workloads;

use harness::{Opts, Report};
use workloads::{Live, Sim, UrrVendor};

/// Runs the workload `opts` names; `None` for an unknown name.
pub fn run(opts: &Opts) -> Option<Report> {
    Some(match opts.workload.as_str() {
        "live_wide" => harness::run(&Live::wide(opts), opts),
        "plan_mysql" => harness::run(&Live::mysql(opts), opts),
        "sim_rollout" => harness::run(&Sim::rollout(opts), opts),
        "sim_rollback" => harness::run(&Sim::rollback(opts), opts),
        "urr_vendor" => harness::run(&UrrVendor::new(opts), opts),
        _ => return None,
    })
}
