//! The socket front-end: a thread-per-connection TCP server feeding the
//! sharded runner.
//!
//! # Architecture
//!
//! No async runtime — the workspace vendors none, and none is needed. The
//! server is a small set of plain threads over the same
//! [`pram::pool::spawn_worker`] seam the shards use:
//!
//! * one **acceptor** blocks in [`TcpListener::accept`] and spawns a
//!   reader/writer pair per connection;
//! * each connection's **reader** decodes request frames and submits them
//!   to the [`ShardedRunner`] itself, under the one lock every reader
//!   shares (a codec rejection is answered with an error frame and closes
//!   the connection — a byte stream cannot resynchronise past a framing
//!   error). Requests from every connection therefore take their tickets
//!   from one submission sequence, so each request's outcome is exactly
//!   what the library would have produced — per-request determinism holds
//!   whatever the cross-connection interleaving. A reader whose shard
//!   queue is full waits in `submit`, which slows its client through TCP;
//! * the **shard** that computes an outcome queues it, tagged with the
//!   request's correlation id, straight on the writer of the connection
//!   that asked: no thread sits between a completion and its reply;
//! * each connection's **writer** owns the response half of the socket and
//!   encodes outcome/error frames from its unbounded queue, so a slow
//!   client never blocks a shard.
//!
//! [`Server::shutdown`] is graceful: in-flight (already submitted)
//! requests complete and their responses are flushed; bytes not yet decoded
//! off a socket are dropped with the connection. It wakes the acceptor with
//! one loopback connect to the listening port.

use super::codec::{encode_error_frame, encode_outcome_frame};
use super::frame::{self, FrameKind, ReadFrame, DEFAULT_MAX_PAYLOAD};
use crate::serve::{
    ConnectionStats, Reply, ResidentRegistry, ServeConfig, ServeStats, ShardedRunner, SolveOutcome,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a reader's socket read waits before re-checking for shutdown
/// (data wakes it at once), and how long the acceptor backs off after a
/// failed accept.
const POLL: Duration = Duration::from_millis(10);

/// How long shutdown's loopback connect may take to wake the acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// A reader panics in `submit` when the shard it routes to has died, and
/// that poisons the runner lock for every other reader and for shutdown.
const RUNNER_POISONED: &str = "net: runner lock poisoned (a worker shard died)";

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Configuration of the underlying
    /// [`ShardedRunner`] (shard count, queue
    /// depth, routing, admission).
    pub serve: ServeConfig,
    /// Cap on accepted frame payload lengths; frames claiming more are
    /// rejected before any allocation
    /// ([`FrameError::Oversize`](super::FrameError::Oversize)). Defaults to
    /// [`DEFAULT_MAX_PAYLOAD`].
    pub max_frame_payload: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            serve: ServeConfig::default(),
            max_frame_payload: DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Per-connection atomic counters (shared between the connection's reader,
/// its writer, and [`Server::shutdown`]'s final report).
#[derive(Default)]
struct ConnCounters {
    requests: AtomicU64,
    responses: AtomicU64,
    protocol_errors: AtomicU64,
}

/// What flows from the shards (or the reader, for codec rejections) to a
/// connection's writer.
enum WriterMsg {
    Outcome {
        correlation: u64,
        outcome: Box<SolveOutcome>,
    },
    Error {
        correlation: u64,
        code: u16,
        message: String,
    },
}

/// The `MISP 1` socket front-end over a [`ShardedRunner`]. See the
/// [module docs](self) for the thread architecture and the
/// [`net` docs](crate::net) for the protocol.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    // `None` once stopped.
    runner: Option<Arc<Mutex<ShardedRunner>>>,
    acceptor: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    writers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    counters: Arc<Mutex<BTreeMap<u64, Arc<ConnCounters>>>>,
}

impl Server {
    /// Binds a listener, spawns the runner's worker shards and the
    /// front-end threads, and starts accepting connections. Bind to port 0
    /// for an ephemeral loopback port ([`local_addr`](Self::local_addr)
    /// reports the assignment).
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<ResidentRegistry>,
        config: &NetConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let runner = Arc::new(Mutex::new(ShardedRunner::new(registry, &config.serve)));
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let writers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let counters: Arc<Mutex<BTreeMap<u64, Arc<ConnCounters>>>> = Arc::default();

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let runner = Arc::clone(&runner);
            let readers = Arc::clone(&readers);
            let writers = Arc::clone(&writers);
            let counters = Arc::clone(&counters);
            let max_payload = config.max_frame_payload;
            pram::pool::spawn_worker("net-acceptor".into(), None, move || {
                let mut next_conn = 0u64;
                loop {
                    let accepted = listener.accept();
                    // Shutdown wakes this thread with a connect of its own.
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    match accepted {
                        Ok((stream, _)) => {
                            // A finished thread keeps its stack mapped until
                            // it is joined: reap closed connections here, so
                            // the lists hold live connections only.
                            join_finished(&readers);
                            join_finished(&writers);
                            // A socket that fails configuration (peer
                            // already gone, typically) is dropped.
                            let _ = spawn_connection(
                                next_conn,
                                stream,
                                max_payload,
                                &shutdown,
                                &runner,
                                &readers,
                                &writers,
                                &counters,
                            );
                            next_conn += 1;
                        }
                        // Out of descriptors, typically: back off rather
                        // than spin on the failing accept.
                        Err(_) => std::thread::sleep(POLL),
                    }
                }
            })
        };

        Ok(Server {
            addr,
            shutdown,
            runner: Some(runner),
            acceptor: Some(acceptor),
            readers,
            writers,
            counters,
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stops accepting, completes every already
    /// submitted request, flushes the responses, joins all threads, and
    /// returns the final [`ServeStats`] with
    /// [`connections`](ServeStats::connections) filled in (one entry per
    /// connection ever accepted, including already-closed ones).
    pub fn shutdown(mut self) -> ServeStats {
        self.stop().expect(RUNNER_POISONED)
    }

    /// Stops the server; `None` if it was already stopped or the runner
    /// lock is poisoned.
    fn stop(&mut self) -> Option<ServeStats> {
        let runner = self.runner.take()?;
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            // A connect wakes the acceptor from `accept` to see the flag. If
            // even a loopback connect fails, nothing can wake it: leave it
            // detached rather than hang shutdown.
            if TcpStream::connect_timeout(&loopback(self.addr), WAKE_TIMEOUT).is_ok() {
                let _ = h.join();
            }
        }
        // Readers notice the flag within one read timeout; one waiting in
        // `submit` on a full shard queue returns once the shard takes the
        // job.
        for h in self.readers.lock().expect("reader list").drain(..) {
            let _ = h.join();
        }
        // No request can arrive after this: the shards solve everything
        // still queued and hand each outcome to its connection's writer.
        let stats = runner.lock().ok().map(|mut runner| runner.finish());
        // A writer's queue closes once its reader and every reply holding
        // it are gone, and the writer exits after writing what the queue
        // held, so the response counters below are final.
        for h in self.writers.lock().expect("writer list").drain(..) {
            let _ = h.join();
        }
        stats.map(|mut stats| {
            stats.connections = self
                .counters
                .lock()
                .expect("connection counters")
                .iter()
                .map(|(&connection, c)| ConnectionStats {
                    connection,
                    requests: c.requests.load(Ordering::Relaxed),
                    responses: c.responses.load(Ordering::Relaxed),
                    protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
                })
                .collect();
            stats
        })
    }
}

/// The address a loopback connect reaches a listener bound to `addr` on:
/// `addr` itself, or the loopback address of its family when `addr` is
/// unspecified (`0.0.0.0` or `::`).
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Joins and removes every handle in `handles` whose thread has finished.
fn join_finished(handles: &Mutex<Vec<JoinHandle<()>>>) {
    let mut handles = handles.lock().expect("connection thread list");
    for h in handles.extract_if(.., |h| h.is_finished()) {
        let _ = h.join();
    }
}

/// Spawns one connection's reader and writer threads.
#[allow(clippy::too_many_arguments)]
fn spawn_connection(
    conn: u64,
    stream: TcpStream,
    max_payload: u32,
    shutdown: &Arc<AtomicBool>,
    runner: &Arc<Mutex<ShardedRunner>>,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    writers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    counters: &Arc<Mutex<BTreeMap<u64, Arc<ConnCounters>>>>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // The read timeout is what lets the reader poll the shutdown flag.
    stream.set_read_timeout(Some(POLL))?;
    let write_half = stream.try_clone()?;
    let conn_counters = Arc::new(ConnCounters::default());
    counters
        .lock()
        .expect("connection counters")
        .insert(conn, Arc::clone(&conn_counters));

    let (writer_tx, writer_rx) = mpsc::channel::<WriterMsg>();
    let writer = {
        let counters = Arc::clone(&conn_counters);
        pram::pool::spawn_worker(format!("net-conn-{conn}-writer"), None, move || {
            write_loop(write_half, writer_rx, &counters)
        })
    };
    writers.lock().expect("writer list").push(writer);

    let reader = {
        let shutdown = Arc::clone(shutdown);
        let runner = Arc::clone(runner);
        let counters = Arc::clone(&conn_counters);
        pram::pool::spawn_worker(format!("net-conn-{conn}-reader"), None, move || {
            read_loop(
                stream,
                max_payload,
                &shutdown,
                &runner,
                writer_tx,
                &counters,
            )
        })
    };
    readers.lock().expect("reader list").push(reader);
    Ok(())
}

/// One connection's request pump: frames off the socket, each decoded
/// request submitted with a reply that queues its outcome on this
/// connection's writer. Returns when the peer closes the connection, the
/// codec rejects a frame, the socket fails, or shutdown stops the read.
fn read_loop(
    mut stream: TcpStream,
    max_payload: u32,
    shutdown: &AtomicBool,
    runner: &Mutex<ShardedRunner>,
    writer: mpsc::Sender<WriterMsg>,
    counters: &ConnCounters,
) {
    let stop = || shutdown.load(Ordering::Acquire);
    loop {
        let (code, message) = match frame::read_frame(&mut stream, max_payload, &stop) {
            Ok(ReadFrame::Frame(FrameKind::Request, payload)) => {
                match super::codec::decode_request_payload(&payload) {
                    Ok((correlation, request)) => {
                        counters.requests.fetch_add(1, Ordering::Relaxed);
                        let writer = writer.clone();
                        let reply: Reply = Box::new(move |outcome| {
                            // Fails only once the writer has exited (its
                            // peer is gone); the outcome is then dropped.
                            let _ = writer.send(WriterMsg::Outcome {
                                correlation,
                                outcome: Box::new(outcome),
                            });
                        });
                        // Held across `submit`'s blocking send into a full
                        // shard queue: safe because shards take only the
                        // runner's accounting lock, never this one.
                        runner
                            .lock()
                            .expect(RUNNER_POISONED)
                            .submit_to(request, Some(reply));
                        continue;
                    }
                    Err(e) => (e.code(), e.to_string()),
                }
            }
            // Outcome/error frames only flow server → client.
            Ok(ReadFrame::Frame(_, _)) => {
                (108, "unexpected frame kind on a server connection".into())
            }
            Err(crate::Error::Frame(e)) => (e.code(), e.to_string()),
            // The peer closed, shutdown stopped the read, or the socket
            // failed: the connection is gone.
            Ok(ReadFrame::Eof | ReadFrame::Stopped) | Err(_) => return,
        };
        counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let _ = writer.send(WriterMsg::Error {
            correlation: 0,
            code,
            message,
        });
        return;
    }
}

/// One connection's response pump: encodes and writes every message queued
/// for this connection, in queue order. Exits when the queue closes (the
/// reader and every pending reply have dropped their senders) or the
/// socket dies.
fn write_loop(mut stream: TcpStream, queue: mpsc::Receiver<WriterMsg>, counters: &ConnCounters) {
    while let Ok(msg) = queue.recv() {
        let bytes = match msg {
            WriterMsg::Outcome {
                correlation,
                outcome,
            } => encode_outcome_frame(correlation, &outcome),
            WriterMsg::Error {
                correlation,
                code,
                message,
            } => encode_error_frame(correlation, code, &message),
        };
        if stream.write_all(&bytes).is_err() {
            return; // peer gone; keep draining is pointless
        }
        counters.responses.fetch_add(1, Ordering::Relaxed);
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Client;
    use crate::serve::SolveRequest;
    use hypergraph::builder::hypergraph_from_edges;

    // Each closed connection's reader and writer are joined by the acceptor
    // at its next accept, so a long-lived server does not keep two thread
    // stacks per connection it ever served.
    #[test]
    fn the_acceptor_joins_closed_connections() {
        let mut registry = ResidentRegistry::new();
        let id = registry.register(hypergraph_from_edges(4, vec![vec![0, 1], vec![2, 3]]));
        let server = Server::bind("127.0.0.1:0", Arc::new(registry), &NetConfig::default())
            .expect("bind loopback server");
        for seed in 0..32 {
            let mut client = Client::connect(server.local_addr()).expect("connect");
            client
                .submit(&SolveRequest::for_graph(id).seed(seed).build())
                .expect("submit");
            assert!(client.recv().expect("reply").outcome.error.is_none());
        }
        let held = |list: &Mutex<Vec<JoinHandle<()>>>| list.lock().unwrap().len();
        let (readers, writers) = (held(&server.readers), held(&server.writers));
        assert!(
            readers <= 4 && writers <= 4,
            "32 closed connections left {readers} reader and {writers} writer handles"
        );
        assert_eq!(server.shutdown().connections.len(), 32);
    }
}
