//! The sockets, threads and processes around the dist cores: the parent's
//! listener, accept and reader threads, worker spawning and reaping, and
//! the one event loop that feeds [`Coord`] through both phases of a run;
//! the worker's dial, heartbeat timer, egress pump and control loop around
//! its [`WorkerCore`].

use super::coord::{Coord, Effect, Input, Received, HELLO_TIMEOUT};
use super::recover::{FailureCause, Transport, FLUSH_BYTES};
use super::wire::{self, Frame, FrameDecoder};
use super::worker::{Control, WorkerCore};
use super::{DistError, DistRun, DistSpec, Registry, ENV_EPOCH, ENV_INDEX};
use crate::backend::Topology;
use std::ffi::OsString;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable carrying the parent's endpoint to a worker: a
/// Unix socket path, or `tcp:ADDR` for the TCP transport.
const ENV_PARENT: &str = "BLAZES_DIST_PARENT";

/// Minimum interval between supervision passes (process reaping, then a
/// [`Input::Tick`]), and the longest the event loop blocks.
const SUPERVISE_EVERY: Duration = Duration::from_millis(5);

/// One frame read tick on the worker's control loop.
const WORKER_POLL: Duration = Duration::from_millis(2);

pub(super) static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Worker argv for a libtest binary: re-run the current executable,
/// selecting exactly the (`#[ignore]`d) test named `entry_test`, whose
/// body calls [`worker_main`]. The test returns immediately when
/// `ENV_PARENT` is unset, so the entry is inert in normal test runs.
///
/// # Panics
/// If the current executable path cannot be determined.
#[must_use]
pub fn libtest_worker_command(entry_test: &str) -> Vec<String> {
    let exe = std::env::current_exe()
        .expect("current_exe for dist worker spawn")
        .to_string_lossy()
        .into_owned();
    vec![
        exe,
        entry_test.to_string(),
        "--exact".to_string(),
        "--include-ignored".to_string(),
    ]
}

/// Removes the socket directory on drop (best effort).
pub(super) struct TempDir(pub(super) PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sets the shared stop flag on drop, so a helper thread — the
/// coordinator's accept thread, a worker's egress pump — winds down on
/// every exit path, including errors.
struct StopFlag(Arc<AtomicBool>);

impl Drop for StopFlag {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------

/// What the shell needs of a coordinator↔worker byte stream; the streams
/// of both transports provide it.
pub(super) trait Stream: Read + Write + Send {
    fn try_clone(&self) -> std::io::Result<Conn>;
    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()>;
    /// Close both directions of the socket under every handle to it, so
    /// a read blocked on another clone returns.
    fn shutdown(&self) -> std::io::Result<()>;
}

/// One coordinator↔worker byte stream, over either transport.
pub(super) type Conn = Box<dyn Stream>;

macro_rules! impl_stream {
    ($($t:ty),*) => {$(
        impl Stream for $t {
            fn try_clone(&self) -> std::io::Result<Conn> {
                Ok(Box::new(<$t>::try_clone(self)?))
            }
            fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
                <$t>::set_read_timeout(self, t)
            }
            fn shutdown(&self) -> std::io::Result<()> {
                <$t>::shutdown(self, std::net::Shutdown::Both)
            }
        }
    )*};
}
impl_stream!(UnixStream, TcpStream);

/// The coordinator's listening socket, over either transport: accepts
/// one connection, in blocking mode (a socket accepted from a
/// non-blocking listener inherits the flag on some platforms).
type Accept = Box<dyn Fn() -> std::io::Result<Conn> + Send>;

/// Dial a coordinator endpoint as formatted for `ENV_PARENT`: a Unix
/// socket path, or `tcp:ADDR`.
fn connect_parent(endpoint: &str) -> std::io::Result<Conn> {
    if let Some(addr) = endpoint.strip_prefix("tcp:") {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Box::new(s))
    } else {
        Ok(Box::new(UnixStream::connect(endpoint)?))
    }
}

// ---------------------------------------------------------------------
// Parent
// ---------------------------------------------------------------------

/// The worker processes of one run, by index. Kills every child still
/// held on drop, so no exit path can leak a worker.
struct Fleet<'a> {
    command: &'a [String],
    endpoint: String,
    children: Vec<Option<Child>>,
}

impl Fleet<'_> {
    /// Spawn incarnation `epoch` of worker `i`.
    fn spawn(&mut self, i: usize, epoch: u32) -> Result<(), DistError> {
        let child = std::process::Command::new(&self.command[0])
            .args(&self.command[1..])
            .env(ENV_PARENT, &self.endpoint)
            .env(ENV_INDEX, i.to_string())
            .env(ENV_EPOCH, epoch.to_string())
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| DistError::WorkerFailed {
                worker: i,
                cause: FailureCause::SpawnFailed(e.to_string()),
            })?;
        self.children[i] = Some(child);
        Ok(())
    }

    /// SIGKILL worker `i` and reap it: it gets no chance to flush.
    fn kill(&mut self, i: usize) {
        if let Some(mut child) = self.children[i].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Reap every worker that has exited, as the inputs that report it.
    fn reap(&mut self) -> Vec<Input<Conn>> {
        let mut exited = Vec::new();
        for (worker, slot) in self.children.iter_mut().enumerate() {
            if let Some(status) = slot.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                *slot = None;
                let cause = FailureCause::Exited(status.code());
                exited.push(Input::Lost {
                    worker,
                    conn: None,
                    cause,
                });
            }
        }
        exited
    }
}

impl Drop for Fleet<'_> {
    fn drop(&mut self) {
        for i in 0..self.children.len() {
            self.kill(i);
        }
    }
}

/// Accept-side thread: poll the listener and, for each connection, read
/// its `Hello` on a helper thread (so one wedged dialer cannot block
/// later connections) before handing it to the event loop.
fn accept_loop(accept: &Accept, stop: &AtomicBool, tx: &mpsc::Sender<Input<Conn>>) {
    let mut conn_seq = 0;
    while !stop.load(Ordering::SeqCst) {
        match accept() {
            Ok(mut conn) => {
                conn_seq += 1;
                let tx = tx.clone();
                std::thread::spawn(move || {
                    if conn.set_read_timeout(Some(HELLO_TIMEOUT)).is_err() {
                        return;
                    }
                    if let Ok((index, epoch)) = read_hello(&mut conn) {
                        let _ = conn.set_read_timeout(None);
                        let _ = tx.send(Input::Hello {
                            worker: index as usize,
                            epoch,
                            conn: conn_seq,
                            writer: conn,
                        });
                    }
                });
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Read the `Hello` frame a freshly connected worker must send first,
/// returning its index and epoch. The worker then waits for its plan, so
/// any byte past the hello is a protocol error.
pub(super) fn read_hello(conn: &mut Conn) -> Result<(u32, u32), DistError> {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 256];
    loop {
        if let Some(frame) = decoder.next_frame()? {
            return match frame {
                Frame::Hello { index, epoch } if decoder.buffered() == 0 => Ok((index, epoch)),
                other => Err(DistError::Protocol(format!(
                    "expected a lone hello, got {other:?}"
                ))),
            };
        }
        let n = conn.read(&mut buf)?;
        if n == 0 {
            return Err(DistError::Protocol("eof before hello".to_string()));
        }
        decoder.push(&buf[..n]);
    }
}

/// Coordinator-side reader thread: decode one connection's stream into
/// conn-tagged inputs, one per socket read, so the channel and the event
/// loop's wake-ups are paid per chunk, not per tuple. Every frame is
/// checked here; data messages travel on as their checked bytes.
fn reader_loop(worker: usize, conn_id: u64, mut conn: Conn, tx: &mpsc::Sender<Input<Conn>>) {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => {
                let _ = tx.send(Input::Lost {
                    worker,
                    conn: Some(conn_id),
                    cause: FailureCause::Eof,
                });
                return;
            }
            Ok(n) => decoder.push(&buf[..n]),
        }
        let (frames, corrupt) = Received::decode(&mut decoder);
        if !frames.is_empty()
            && tx
                .send(Input::Frames {
                    worker,
                    conn: conn_id,
                    frames,
                })
                .is_err()
        {
            return;
        }
        if let Some(e) = corrupt {
            let _ = tx.send(Input::Lost {
                worker,
                conn: Some(conn_id),
                cause: FailureCause::Corrupt(e.to_string()),
            });
            return;
        }
    }
}

/// Execute `spec` across real worker processes and collect the sinks.
///
/// The parent records the assembly for its routing table, binds a listening
/// socket (Unix by default, loopback TCP via
/// [`super::DistTuning::with_transport`]), spawns `spec.processes`
/// workers with `ENV_PARENT`/[`ENV_INDEX`]/[`ENV_EPOCH`] set, ships each
/// its plan, routes every cross-partition frame (applying the wire fault
/// schedule), and — once the stability protocol holds — collects sink
/// contents and statistics. Workers that die during routing are respawned
/// and rehydrated by deterministic replay (see the module-level *Fault
/// tolerance* notes); workers that die during collection fail the run.
///
/// # Errors
/// Any I/O, decode, protocol or worker failure; see [`DistError`].
///
/// # Panics
/// If `spec.processes` or `spec.workers_per_process` is zero, or the
/// worker command is empty.
pub fn run_dist(spec: &DistSpec, registry: &Registry) -> Result<DistRun, DistError> {
    assert!(spec.processes >= 1, "at least one worker process");
    assert!(spec.workers_per_process >= 1, "at least one worker thread");
    assert!(!spec.worker_command.is_empty(), "empty worker command");

    // Record the SPMD assembly; the coordinator reads its routing table
    // off the recording and drops the rest.
    let mut topology = Topology::new();
    let sinks = registry.assemble(&spec.topology, &spec.params, &mut topology)?;

    // Bind the endpoint. Unix sockets live in a private temp dir that is
    // cleaned up whatever happens; TCP binds an ephemeral loopback port.
    let mut _dir_guard = None;
    let (accept, endpoint): (Accept, String) = match spec.tuning.transport {
        Transport::Unix => {
            let dir = std::env::temp_dir().join(format!(
                "blazes-dist-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::SeqCst)
            ));
            std::fs::create_dir_all(&dir)?;
            _dir_guard = Some(TempDir(dir.clone()));
            let sock = dir.join("coord.sock");
            let listener = UnixListener::bind(&sock)?;
            listener.set_nonblocking(true)?;
            let accept = move || -> std::io::Result<Conn> {
                let (s, _) = listener.accept()?;
                s.set_nonblocking(false)?;
                Ok(Box::new(s))
            };
            (Box::new(accept), sock.to_string_lossy().into_owned())
        }
        Transport::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            listener.set_nonblocking(true)?;
            let endpoint = format!("tcp:{}", listener.local_addr()?);
            let accept = move || -> std::io::Result<Conn> {
                let (s, _) = listener.accept()?;
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
                Ok(Box::new(s))
            };
            (Box::new(accept), endpoint)
        }
    };

    // Accept thread: hands completed hellos to the event loop. The stop
    // flag is set on every exit path by the drop guard.
    let (tx, rx) = mpsc::channel::<Input<Conn>>();
    let stop = Arc::new(AtomicBool::new(false));
    let _stop_guard = StopFlag(Arc::clone(&stop));
    let accept_handle = {
        let stop = Arc::clone(&stop);
        let tx = tx.clone();
        std::thread::spawn(move || accept_loop(&accept, &stop, &tx))
    };

    let mut fleet = Fleet {
        command: &spec.worker_command,
        endpoint,
        children: (0..spec.processes).map(|_| None).collect(),
    };
    let mut readers = Vec::new();
    let start = Instant::now();
    let (mut coord, mut effects) = Coord::new(spec, topology, sinks, Duration::ZERO);
    let mut last_sweep = start;
    let run = 'run: loop {
        for effect in effects.drain(..) {
            match effect {
                Effect::Spawn { worker, epoch } => fleet.spawn(worker, epoch)?,
                Effect::Kill { worker } => fleet.kill(worker),
                Effect::Done(run) => break 'run run,
            }
        }
        if last_sweep.elapsed() >= SUPERVISE_EVERY {
            last_sweep = Instant::now();
            for lost in fleet.reap() {
                effects.extend(coord.step(start.elapsed(), lost)?);
            }
            effects.extend(coord.step(start.elapsed(), Input::Tick)?);
            continue;
        }
        // Take what is already queued without blocking; only when the
        // queue runs dry, flush every outbox and then wait. Routed frames
        // thus leave in chunk-sized writes while traffic flows, and never
        // sit in a buffer while the coordinator sleeps.
        let input = match rx.try_recv() {
            Ok(input) => input,
            Err(_) => {
                coord.flush();
                match rx.recv_timeout(SUPERVISE_EVERY) {
                    Ok(input) => input,
                    // The event loop holds a sender, so the channel
                    // cannot disconnect: this is a timeout.
                    Err(_) => continue,
                }
            }
        };
        if let Input::Hello {
            worker,
            epoch,
            conn,
            writer,
        } = &input
        {
            // Read an admitted connection *before* the core replays into
            // it (see `Coord::admits`); drop any other dialer.
            if !coord.admits(*worker, *epoch) {
                continue;
            }
            let Ok(reader) = writer.try_clone() else {
                continue;
            };
            let (worker, conn, tx) = (*worker, *conn, tx.clone());
            readers.push(std::thread::spawn(move || {
                reader_loop(worker, conn, reader, &tx);
            }));
        }
        effects = coord.step(start.elapsed(), input)?;
    };

    // The core told every worker to shut down; reap everything.
    stop.store(true, Ordering::SeqCst);
    let _ = accept_handle.join();
    for reader in readers {
        let _ = reader.join();
    }
    for mut child in fleet.children.iter_mut().filter_map(Option::take) {
        let _ = child.wait();
    }
    Ok(run)
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// Worker entry point. Returns `false` immediately when `ENV_PARENT`
/// is not set (the process is not a dist worker — e.g. the `#[ignore]`d
/// libtest entry ran in a normal test sweep); otherwise connects to the
/// parent, executes its partition to completion and returns `true`.
///
/// # Panics
/// On any I/O or protocol failure — a worker dies loudly so the parent's
/// supervisor sees the exit instead of a hang.
pub fn worker_main(registry: &Registry) -> bool {
    let Some(endpoint) = std::env::var_os(ENV_PARENT) else {
        return false;
    };
    let endpoint = endpoint.to_string_lossy().into_owned();
    let index: usize = env_number(ENV_INDEX, std::env::var_os(ENV_INDEX))
        .unwrap_or_else(|e| panic!("dist worker: {e}"));
    let epoch: u32 = env_number(ENV_EPOCH, std::env::var_os(ENV_EPOCH))
        .unwrap_or_else(|e| panic!("dist worker {index}: {e}"));
    match worker_run(registry, &endpoint, index, epoch) {
        Ok(()) => true,
        Err(e) => panic!("dist worker {index} failed: {e}"),
    }
}

/// Parse `value`, the value of the spawner-set environment variable
/// `name`, as a decimal number. Missing or malformed is an error naming
/// the variable, never a default.
pub(super) fn env_number<T: std::str::FromStr>(
    name: &str,
    value: Option<OsString>,
) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{name} is not set"))?;
    value
        .to_str()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{name}={value:?} is not a number"))
}

/// Dial the parent, retrying briefly: the listener is bound before any
/// spawn, but a TCP accept queue can refuse transiently under load.
fn dial_parent(endpoint: &str) -> Result<Conn, DistError> {
    let mut attempt = 0;
    loop {
        match connect_parent(endpoint) {
            Ok(conn) => return Ok(conn),
            Err(_) if attempt < 20 => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(DistError::Io(e)),
        }
    }
}

pub(super) fn worker_run(
    registry: &Registry,
    endpoint: &str,
    index: usize,
    epoch: u32,
) -> Result<(), DistError> {
    let mut stream = dial_parent(endpoint)?;
    stream.write_all(&wire::encode(&Frame::Hello {
        index: index as u32,
        epoch,
    }))?;

    // Wait for the plan.
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let plan = loop {
        if let Some(frame) = decoder.next_frame()? {
            match frame {
                Frame::Shutdown => return Ok(()),
                plan => break plan,
            }
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(DistError::Protocol("eof before plan".to_string()));
        }
        decoder.push(&buf[..n]);
    };
    let (mut core, egress_rx) = WorkerCore::start(registry, plan, index, epoch)?;
    let heartbeat_every = core.heartbeat_every;

    // Egress pump: encode and write cross-partition frames, the batches
    // the runtime has queued up to a chunk's worth per socket write.
    // Shares the socket with the control loop's heartbeats and idle
    // reports through a mutex; the pump is the only high-volume writer.
    // An idle report is written only once `written` covers every queued
    // frame, so it travels behind them.
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let written = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let _stop_guard = StopFlag(Arc::clone(&stop));
    let pump = {
        let writer = Arc::clone(&writer);
        let written = Arc::clone(&written);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> Result<(), DistError> {
            let mut chunk: Vec<u8> = Vec::new();
            loop {
                match egress_rx.recv_timeout(WORKER_POLL) {
                    Ok(first) => {
                        // Block for one batch, then take what else is
                        // already queued, up to a chunk's worth.
                        let mut frames = 0u64;
                        let mut next = Some(first);
                        while let Some(batch) = next {
                            for (wire, seq, msg) in batch {
                                blazes_obs::record(blazes_obs::EventKind::FrameSend, wire, seq);
                                wire::encode_into(&Frame::Data { wire, seq, msg }, &mut chunk);
                                frames += 1;
                            }
                            next = (chunk.len() < FLUSH_BYTES)
                                .then(|| egress_rx.try_recv().ok())
                                .flatten();
                        }
                        let mut w = writer
                            .lock()
                            .map_err(|_| DistError::Protocol("pump writer poisoned".into()))?;
                        if let Err(e) = w.write_all(&chunk) {
                            // Fail-stop: a lost write ends this
                            // incarnation. The shutdown makes the control
                            // loop's next read fail too; the coordinator
                            // respawns the worker and replays its log.
                            let _ = w.shutdown();
                            return Err(e.into());
                        }
                        drop(w);
                        chunk.clear();
                        written.fetch_add(frames, Ordering::SeqCst);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if stop.load(Ordering::SeqCst) {
                            return Ok(());
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
                }
            }
        })
    };

    // Control loop: feed the core, heartbeat, report idleness on quiet
    // ticks. Losing the connection — EOF, or a read or write that fails —
    // ends this incarnation with an error; the coordinator respawns a
    // fresh one. A protocol violation the core detects is reported first.
    stream.set_read_timeout(Some(WORKER_POLL))?;
    let mut last_hb: Option<Instant> = None;
    let collect = 'control: loop {
        if last_hb.is_none_or(|t| t.elapsed() >= heartbeat_every) {
            send_control(&writer, &Frame::Heartbeat)?;
            last_hb = Some(Instant::now());
        }
        // Drain frames already buffered *before* blocking on the socket:
        // the plan read slurps whole chunks, so replayed frames can sit
        // fully decoded in the buffer with no further bytes ever arriving
        // to trigger a read-path drain. The core stages a read's data
        // frames and injects them as one batch, at the latest here.
        while let Some(frame) = decoder.next_frame()? {
            match core.on_frame(frame, written.load(Ordering::SeqCst)) {
                Ok(None) => {}
                Ok(Some(Control::Collect)) => break 'control true,
                Ok(Some(Control::Shutdown)) => break 'control false,
                Err(e) => return Err(report(&writer, e)),
            }
        }
        core.inject_staged();
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(DistError::Protocol(
                    "the coordinator closed the connection".to_string(),
                ))
            }
            Ok(n) => decoder.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if let Some(idle) = core.idle_report(written.load(Ordering::SeqCst)) {
                    send_control(&writer, &idle)?;
                }
            }
            Err(e) => return Err(e.into()),
        }
    };

    // `Collect` comes only once the run is stable, and `Shutdown` ends it
    // either way: the pump has nothing left to write. Stop it, then finish
    // the local run.
    stop.store(true, Ordering::SeqCst);
    pump.join()
        .map_err(|_| DistError::Protocol("egress pump panicked".to_string()))??;
    let results = core.finish();
    if collect {
        let results = results.map_err(|e| report(&writer, e))?;
        // One buffer carries every result frame: each is encoded into it
        // and written out in turn.
        let mut out = Vec::new();
        let mut w = writer
            .lock()
            .map_err(|_| DistError::Protocol("writer poisoned".to_string()))?;
        for frame in results {
            out.clear();
            wire::encode_into(&frame, &mut out);
            w.write_all(&out)?;
        }
        drop(w);
        // Wait for the shutdown order (keeps the socket open until the
        // parent has drained our results).
        stream.set_read_timeout(None)?;
        loop {
            if let Some(frame) = decoder.next_frame()? {
                if matches!(frame, Frame::Shutdown) {
                    break;
                }
                continue;
            }
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => decoder.push(&buf[..n]),
            }
        }
    }
    Ok(())
}

/// Tell the coordinator about the worker's fatal error `e` (best effort)
/// and hand `e` back.
fn report(writer: &Arc<Mutex<Conn>>, e: DistError) -> DistError {
    let message = e.to_string();
    let _ = send_control(writer, &Frame::Error { message });
    e
}

/// Serialize one control frame onto the shared worker socket.
fn send_control(writer: &Arc<Mutex<Conn>>, frame: &Frame) -> Result<(), DistError> {
    writer
        .lock()
        .map_err(|_| DistError::Protocol("writer poisoned".to_string()))?
        .write_all(&wire::encode(frame))?;
    Ok(())
}
