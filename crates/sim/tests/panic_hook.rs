//! A panic inside a supervised attempt is reported only through the
//! attempt's `JobFailure`; every other panic still reaches the process's
//! panic hook. The hook is process-wide, so this is the only test in its
//! binary.

use rnuca_sim::{ExperimentEngine, FailureCause};
use rnuca_types::RetryPolicy;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

#[test]
fn only_panics_outside_supervised_attempts_reach_the_panic_hook() {
    // The hook in place before the first supervised run records every
    // panic message it is handed.
    let seen = Arc::new(Mutex::new(Vec::<String>::new()));
    let record = Arc::clone(&seen);
    std::panic::set_hook(Box::new(move |info| {
        let message = info.payload_as_str().unwrap_or("non-string payload");
        record.lock().unwrap().push(message.to_string());
    }));

    // Job 1 panics on both of its attempts, on a worker thread.
    let stop = AtomicBool::new(false);
    let out = ExperimentEngine::with_workers(2)
        .run_supervised(
            &[0u32, 1, 2],
            0,
            &RetryPolicy::immediate(1),
            &stop,
            |_, &j, _| {
                if j == 1 {
                    panic!("attempt at job {j} failed");
                }
                j
            },
            |_, _| Ok::<(), ()>(()),
        )
        .expect("the hook accepts every outcome");
    let failure = out[1]
        .as_ref()
        .expect("job 1 was claimed")
        .as_ref()
        .expect_err("job 1 is quarantined");
    assert_eq!(failure.cause, FailureCause::Panic);
    assert_eq!(failure.attempts, 2);
    assert_eq!(failure.message, "attempt at job 1 failed");
    // Copied out first: a failing assertion panics, and the hook then
    // locks `seen` itself.
    let silent = seen.lock().unwrap().clone();
    assert!(silent.is_empty(), "attempt panics stay silent: {silent:?}");

    // Outside an attempt, on this thread and on a plain thread, the hook
    // that was installed before the engine's still runs.
    assert!(std::panic::catch_unwind(|| panic!("outside an attempt")).is_err());
    assert!(std::thread::spawn(|| panic!("on a plain thread"))
        .join()
        .is_err());
    let printed = seen.lock().unwrap().clone();
    assert_eq!(printed, ["outside an attempt", "on a plain thread"]);
}
