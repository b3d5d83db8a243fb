//! The sequential oracle: the calendar queue popped one event at a
//! time.
//!
//! [`run_sequential`] hands every event to the vendor side (`vendor.rs`)
//! on its own: no run of passes is absorbed and no counter batched. It
//! is off every production path — [`Simulation::run`](crate::Simulation::run)
//! never calls it — and exists so the driver's properties have
//! something to compare against: metrics, journal stream, counter
//! sums, gauges and the repository a run fills.

use mirage_deploy::{MachineId, Protocol};
use mirage_telemetry::Telemetry;

use crate::engine::{Event, EventQueue, SimTime};
use crate::faults::RngLanes;
use crate::metrics::SimMetrics;
use crate::scenario::Scenario;
use crate::vendor::{test_outcome, Lent, Schedule, Transmission, VendorSide};

impl Schedule for EventQueue {
    fn test(&mut self, time: SimTime, machine: MachineId, release: u32) {
        self.schedule(time, Event::TestDone { machine, release });
    }

    fn vendor(&mut self, time: SimTime, event: Event) {
        self.schedule(time, event);
    }

    fn pending(&self) -> usize {
        self.len()
    }
}

/// Runs `scenario` against `protocol` one event at a time, until the
/// queue drains.
pub fn run_sequential(
    scenario: &Scenario,
    telemetry: Telemetry,
    protocol: &mut dyn Protocol,
) -> SimMetrics {
    let mut vendor = VendorSide::new(scenario, EventQueue::new(), telemetry, Lent::default());
    // One fault RNG lane per machine for machine→vendor transmissions,
    // forked off the plan seed, so a machine's report fault schedule
    // depends only on its own event order. Empty unless the scenario
    // has a fault plan.
    let lanes = if vendor.faults_active {
        scenario.machine_count()
    } else {
        0
    };
    let mut rng_up = RngLanes::new(scenario.faults.seed, lanes);
    let _span = vendor.telemetry.span("sim.run");
    vendor.start(protocol);
    while let Some((time, event)) = vendor.sched.pop() {
        vendor.advance(time);
        match event {
            Event::TestDone { machine, release } => {
                let outcome = test_outcome(scenario, &vendor.fixed_by_release, machine, release);
                let uplink = vendor.faults_active.then(|| {
                    rng_up.draw(machine.index(), |rng| {
                        Transmission::draw(rng, &scenario.faults)
                    })
                });
                vendor.test_done(protocol, machine, release, outcome, uplink);
            }
            other => vendor.vendor_event(protocol, other),
        }
    }
    vendor.finish(protocol)
}
