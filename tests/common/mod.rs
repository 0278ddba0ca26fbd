//! What the par integration suites share: every par execution they make
//! runs through [`run_within_deadline`].

use blazes::dataflow::par::{ParExecutor, ParStats};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How long one par execution may take before it counts as hung. Every
/// run in these suites takes well under a second.
const DEADLINE: Duration = Duration::from_secs(60);

/// Run `exec` to quiescence on a thread of its own and return its stats,
/// failing with `topology` in the message if it has not returned within
/// [`DEADLINE`]. Idle par workers wait with no timeout, so a lost wakeup
/// hangs a run forever; this turns the hang into a named failure. A
/// panic of the run is re-raised as is.
pub fn run_within_deadline(topology: &str, exec: ParExecutor) -> ParStats {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(exec.run());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(stats) => {
            runner.join().expect("the runner ends after sending");
            stats
        }
        Err(RecvTimeoutError::Timeout) => panic!(
            "{topology}: the par run did not return within {} s",
            DEADLINE.as_secs()
        ),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("the run panicked"))
        }
    }
}
