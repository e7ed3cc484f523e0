//! The global telemetry kill switch actually flips.
//!
//! One `#[test]` in a binary of its own: `set_enabled` is process-global,
//! so toggling it next to other tests would drop their observations.

use xsearch_telemetry::{set_enabled, FlightEvent, FlightRecorder, Registry};

#[test]
fn disabled_recorders_drop_observations_and_resume_when_re_enabled() {
    let registry = Registry::new();
    let counter = registry.counter("kill_switch_total", "Test counter", &[]);
    let histogram = registry.histogram("kill_switch_us", "Test histogram", &[]);
    let flight = FlightRecorder::with_capacity(8);
    let record_all = || {
        counter.inc();
        histogram.record(250);
        flight.record(FlightEvent::BreakerClose { replica: 1 });
    };
    // (counter value, histogram count, flight total) as a snapshot sees them.
    let observed = || {
        let snap = registry.snapshot();
        (
            snap.value("kill_switch_total", &[]),
            snap.histograms[0].histogram.count(),
            flight.total(),
        )
    };

    record_all();
    let before = observed();
    assert_eq!(before, (Some(1.0), 1, 1), "enabled by default");

    set_enabled(false);
    record_all();
    assert_eq!(
        observed(),
        before,
        "disabled recorders must drop the record"
    );

    set_enabled(true);
    record_all();
    assert_eq!(observed(), (Some(2.0), 2, 2), "re-enabled recorders resume");
}
