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
//! * each connection's **reader** decodes request frames and forwards them
//!   to the dispatcher (a codec rejection is answered with an error frame
//!   and closes the connection — a byte stream cannot resynchronise past a
//!   framing error);
//! * each connection's **writer** owns the response half of the socket and
//!   encodes outcome/error frames from its queue, so a slow connection
//!   backpressures only itself;
//! * one **dispatcher** owns the
//!   [`ShardedRunner`] — the only thread that
//!   touches it. It parks until a reader hands it a request or a shard
//!   finishes one (both unpark it), submits every queued request, routes
//!   every completed outcome to the writer of the connection whose ticket
//!   it answers, and parks again: no timer sits between a completion and
//!   its reply. Requests from every connection funnel through one
//!   submission sequence, so each request's outcome is exactly what the
//!   library would have produced — per-request determinism holds whatever
//!   the cross-connection interleaving.
//!
//! [`Server::shutdown`] is graceful: in-flight (already submitted)
//! requests complete and their responses are flushed; bytes not yet decoded
//! off a socket are dropped with the connection. It wakes the acceptor with
//! one loopback connect to the listening port.

use super::codec::{encode_error_frame, encode_outcome_frame};
use super::frame::{self, FrameKind, ReadFrame, DEFAULT_MAX_PAYLOAD};
use crate::serve::{
    ConnectionStats, ResidentRegistry, ServeConfig, ServeStats, ShardedRunner, SolveOutcome,
    SolveRequest,
};
use pram::WorkspacePool;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

/// How long a reader's socket read, or a parked dispatcher, waits before
/// re-checking for shutdown or a dead shard. Neither waits this long for
/// work: data wakes a read, and every event or completion unparks the
/// dispatcher.
const POLL: Duration = Duration::from_millis(10);

/// How long shutdown's loopback connect may take to wake the acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

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

/// What flows from connection threads to the dispatcher.
enum Event {
    Connect {
        conn: u64,
        writer: mpsc::Sender<WriterMsg>,
    },
    Submit {
        conn: u64,
        correlation: u64,
        request: SolveRequest,
    },
    Disconnect {
        conn: u64,
    },
    /// Sent by [`Server::shutdown`] once every reader has stopped: finish
    /// what was submitted, then return.
    Stop,
}

/// The sending side of the dispatcher's event queue. Every send unparks the
/// dispatcher, so an event never waits for its timeout.
#[derive(Clone)]
struct Inbox {
    events: mpsc::Sender<Event>,
    dispatcher: Thread,
}

impl Inbox {
    /// Queues `event`; `false` once the dispatcher has gone.
    fn send(&self, event: Event) -> bool {
        let sent = self.events.send(event).is_ok();
        self.dispatcher.unpark();
        sent
    }
}

/// What flows from the dispatcher (or a reader, for codec rejections) to a
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
    inbox: Inbox,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<ServeStats>>,
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
        let (events_tx, events_rx) = mpsc::channel::<Event>();
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let writers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let counters: Arc<Mutex<BTreeMap<u64, Arc<ConnCounters>>>> = Arc::default();

        let serve = config.serve.clone();
        let dispatcher = pram::pool::spawn_worker("net-dispatcher".into(), None, move || {
            // Built on this thread so that every shard unparks it when an
            // outcome lands.
            let wake = Some(std::thread::current());
            let runner = ShardedRunner::with_wake(registry, &serve, WorkspacePool::default(), wake);
            dispatch(runner, events_rx)
        });
        let inbox = Inbox {
            events: events_tx,
            dispatcher: dispatcher.thread().clone(),
        };

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let inbox = inbox.clone();
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
                            // A socket that fails configuration (peer
                            // already gone, typically) is dropped.
                            let _ = spawn_connection(
                                next_conn,
                                stream,
                                max_payload,
                                &shutdown,
                                &inbox,
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
            inbox,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
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
        self.stop().expect("net: dispatcher thread panicked")
    }

    fn stop(&mut self) -> Option<ServeStats> {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            // A connect wakes the acceptor from `accept` to see the flag. If
            // even a loopback connect fails, nothing can wake it: leave it
            // detached rather than hang shutdown (the dispatcher ends on
            // `Stop`, not on the acceptor's sender going away).
            if TcpStream::connect_timeout(&loopback(self.addr), WAKE_TIMEOUT).is_ok() {
                let _ = h.join();
            }
        }
        // Readers notice the flag within one read timeout. They leave their
        // connections registered, so the dispatcher's drain below still
        // reaches every writer.
        for h in self.readers.lock().expect("reader list").drain(..) {
            let _ = h.join();
        }
        // No request can arrive after this: the dispatcher drains
        // outstanding outcomes to the writers and then drops their queues.
        self.inbox.send(Event::Stop);
        let stats = self
            .dispatcher
            .take()
            .map(|h| h.join().expect("net: dispatcher thread panicked"));
        // Each writer exits once it has written what its queue still held,
        // so the response counters below are final.
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
        if self.dispatcher.is_some() {
            let _ = self.stop();
        }
    }
}

/// Spawns one connection's reader and writer threads.
#[allow(clippy::too_many_arguments)]
fn spawn_connection(
    conn: u64,
    stream: TcpStream,
    max_payload: u32,
    shutdown: &Arc<AtomicBool>,
    inbox: &Inbox,
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
    // Registration precedes the reader spawn, so the dispatcher always
    // learns of the connection before its first request.
    inbox.send(Event::Connect {
        conn,
        writer: writer_tx.clone(),
    });

    let writer = {
        let counters = Arc::clone(&conn_counters);
        pram::pool::spawn_worker(format!("net-conn-{conn}-writer"), None, move || {
            write_loop(write_half, writer_rx, &counters)
        })
    };
    writers.lock().expect("writer list").push(writer);

    let reader = {
        let shutdown = Arc::clone(shutdown);
        let inbox = inbox.clone();
        let counters = Arc::clone(&conn_counters);
        pram::pool::spawn_worker(format!("net-conn-{conn}-reader"), None, move || {
            let closed = read_loop(
                conn,
                stream,
                max_payload,
                &shutdown,
                &inbox,
                writer_tx,
                &counters,
            );
            // On shutdown the connection stays registered, so outcomes
            // still in flight reach its writer during the dispatcher's drain.
            if closed {
                inbox.send(Event::Disconnect { conn });
            }
        })
    };
    readers.lock().expect("reader list").push(reader);
    Ok(())
}

/// One connection's request pump: frames off the socket, decoded requests
/// into the dispatcher's queue. Returns `true` when the connection is
/// finished (the peer closed it, the codec rejected a frame, or the socket
/// failed) and `false` when shutdown stopped the read.
fn read_loop(
    conn: u64,
    mut stream: TcpStream,
    max_payload: u32,
    shutdown: &AtomicBool,
    inbox: &Inbox,
    writer: mpsc::Sender<WriterMsg>,
    counters: &ConnCounters,
) -> bool {
    let stop = || shutdown.load(Ordering::Acquire);
    loop {
        match frame::read_frame(&mut stream, max_payload, &stop) {
            Ok(ReadFrame::Frame(FrameKind::Request, payload)) => {
                match super::codec::decode_request_payload(&payload) {
                    Ok((correlation, request)) => {
                        counters.requests.fetch_add(1, Ordering::Relaxed);
                        if !inbox.send(Event::Submit {
                            conn,
                            correlation,
                            request,
                        }) {
                            return true;
                        }
                    }
                    Err(e) => {
                        counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        let _ = writer.send(WriterMsg::Error {
                            correlation: 0,
                            code: e.code(),
                            message: e.to_string(),
                        });
                        return true;
                    }
                }
            }
            Ok(ReadFrame::Frame(_, _)) => {
                // Outcome/error frames only flow server → client.
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = writer.send(WriterMsg::Error {
                    correlation: 0,
                    code: 108,
                    message: "unexpected frame kind on a server connection".into(),
                });
                return true;
            }
            Ok(ReadFrame::Eof) => return true,
            Ok(ReadFrame::Stopped) => return false,
            Err(crate::Error::Frame(e)) => {
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = writer.send(WriterMsg::Error {
                    correlation: 0,
                    code: e.code(),
                    message: e.to_string(),
                });
                return true;
            }
            Err(_) => return true, // socket error: the connection is gone
        }
    }
}

/// One connection's response pump: encodes and writes every message queued
/// for this connection, in queue order. Exits when the queue closes (the
/// reader and the dispatcher have both dropped their senders) or the
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

/// The dispatcher loop: the single owner of the [`ShardedRunner`]. It
/// handles one event at a time, hands every completed outcome to its
/// connection's writer after each, and parks once the queue is empty until
/// the next event or completion unparks it. After [`Event::Stop`] it keeps
/// going until every submitted request has been delivered, then returns the
/// runner's final stats (connection counters are attached by
/// [`Server::shutdown`]).
fn dispatch(mut runner: ShardedRunner, events: mpsc::Receiver<Event>) -> ServeStats {
    let mut writers: BTreeMap<u64, mpsc::Sender<WriterMsg>> = BTreeMap::new();
    // ticket → (connection, correlation): which socket each outcome goes
    // back out on, and as which client-side request.
    let mut routes: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut stopping = false;
    loop {
        match events.try_recv() {
            Ok(Event::Connect { conn, writer }) => {
                writers.insert(conn, writer);
            }
            Ok(Event::Submit {
                conn,
                correlation,
                request,
            }) => {
                let ticket = runner.submit(request);
                routes.insert(ticket, (conn, correlation));
            }
            Ok(Event::Disconnect { conn }) => {
                // Outcomes still in flight for this connection will find no
                // writer and be dropped on delivery.
                writers.remove(&conn);
            }
            // Shutdown drain: every submitted request still completes and
            // is flushed to its connection's writer before the queues close.
            Ok(Event::Stop) => stopping = true,
            Err(_) if stopping && runner.outstanding() == 0 => break,
            // The timeout only bounds how late a dead shard is noticed
            // (`try_collect_one` panics on one); work always unparks.
            Err(_) => std::thread::park_timeout(POLL),
        }
        while let Some(out) = runner.try_collect_one(Duration::ZERO) {
            deliver(&writers, &mut routes, out);
        }
    }
    runner.stats()
}

fn deliver(
    writers: &BTreeMap<u64, mpsc::Sender<WriterMsg>>,
    routes: &mut BTreeMap<u64, (u64, u64)>,
    outcome: SolveOutcome,
) {
    if let Some((conn, correlation)) = routes.remove(&outcome.ticket) {
        if let Some(writer) = writers.get(&conn) {
            let _ = writer.send(WriterMsg::Outcome {
                correlation,
                outcome: Box::new(outcome),
            });
        }
    }
}
