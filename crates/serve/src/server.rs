//! The TCP server and its in-process client.
//!
//! Hand-rolled on `std::net` only: a blocking accept loop on its own
//! thread, handler threads that each serve one connection at a time and
//! are reused across connections, and one
//! `Mutex<ServerState>` guarding the caches — request *handling* is
//! serialized (which is what makes responses deterministic), while a
//! `sweep`'s simulations still fan out over the work-stealing pool
//! inside the handler. Backpressure is a bounded in-flight counter:
//! past the bound a request is answered `server busy` immediately
//! instead of queueing without limit.
//!
//! Stopping (the `shutdown` op or [`ServerHandle::stop`]) sets a flag
//! and wakes the accept loop with one loopback connection, which the
//! loop drops. A handler thread that finishes a connection parks until
//! the loop hands it the next one, so a client that connects once per
//! request is served by threads that already run, and that allocate
//! from malloc arenas already warm, instead of by a new thread whose
//! start races the previous handler's exit. Each request and response
//! line goes out in one write on a `TCP_NODELAY` socket, so a
//! connection kept open across requests never waits on a delayed ACK.
//! A request line past [`MAX_LINE_BYTES`] gets one error line and then
//! the connection closes, so no client can make the server buffer
//! without bound.

use crate::protocol::{handle_request, Outcome, ServerState};
use ocelot_telemetry::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest request line the server reads, newline excluded: far
/// above any program a client sends (the 36-function edit-trace source
/// is about 100 KB), and small enough that no line exhausts memory.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// Server configuration (CLI flags of `ocelotc serve`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads for `sweep` fan-out.
    pub jobs: usize,
    /// Program-cache capacity (submissions past it are refused).
    pub max_programs: usize,
    /// Requests processed concurrently before `server busy` replies.
    pub max_inflight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7433".into(),
            jobs: ocelot_runtime::pool::default_jobs(),
            max_programs: 64,
            max_inflight: 32,
        }
    }
}

/// The server's stop flag and how to wake the accept loop, which
/// blocks in `accept` until a connection arrives.
struct Stopper {
    flag: AtomicBool,
    /// A connectable address of the listener: the bound one, with an
    /// unspecified IP replaced by the loopback of the same family.
    wake: SocketAddr,
}

impl Stopper {
    fn new(bound: SocketAddr) -> Self {
        let mut wake = bound;
        if bound.ip().is_unspecified() {
            wake.set_ip(match bound.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Stopper {
            flag: AtomicBool::new(false),
            wake,
        }
    }

    fn stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Sets the flag; the first call also connects once to the
    /// listener so the accept loop returns and sees it.
    fn stop(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            // A failed connect means the loop has already exited.
            let _ = TcpStream::connect(self.wake);
        }
    }
}

/// A running server: its bound address and shutdown handle.
pub struct ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub addr: SocketAddr,
    stop: Arc<Stopper>,
    accept_thread: JoinHandle<()>,
}

impl ServerHandle {
    /// Asks the accept loop to stop and waits for it (connection
    /// handlers exit when their streams close).
    pub fn stop(self) {
        self.stop.stop();
        let _ = self.accept_thread.join();
    }

    /// Blocks until the server stops (a client sent `shutdown`).
    pub fn wait(self) {
        let _ = self.accept_thread.join();
    }
}

/// Binds and starts a server in background threads, returning once the
/// listener is accepting.
///
/// # Errors
///
/// I/O errors from binding the listener.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(Stopper::new(addr));
    let state = Arc::new(Mutex::new(ServerState::new(
        config.jobs,
        config.max_programs,
    )));
    let inflight = Arc::new(AtomicUsize::new(0));
    let max_inflight = config.max_inflight.max(1);

    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || {
        let idle: Arc<Idle> = Arc::new(Mutex::new(Some(Vec::new())));
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let accepted = listener.accept();
            // Checked after every accept: a stop request wakes the loop
            // with a connection of its own, dropped here unanswered.
            if accept_stop.stopped() {
                break;
            }
            let Ok((stream, _)) = accepted else { break };
            // The most recently parked handler takes the connection; a
            // new one starts only when every handler is busy.
            let parked = idle.lock().ok().and_then(|mut v| v.as_mut()?.pop());
            let stream = match parked {
                Some(tx) => match tx.send(stream) {
                    Ok(()) => continue,
                    Err(unsent) => unsent.0,
                },
                None => stream,
            };
            let state = Arc::clone(&state);
            let stop = Arc::clone(&accept_stop);
            let inflight = Arc::clone(&inflight);
            let idle = Arc::clone(&idle);
            handlers.push(std::thread::spawn(move || {
                let mut next = Some(stream);
                while let Some(stream) = next {
                    handle_connection(stream, &state, &stop, &inflight, max_inflight);
                    next = park(&idle);
                }
            }));
        }
        // Dropping the parked senders ends every parked handler's wait;
        // a busy one exits when its connection ends.
        if let Ok(mut v) = idle.lock() {
            v.take();
        }
        for h in handlers {
            let _ = h.join();
        }
    });

    Ok(ServerHandle {
        addr,
        stop,
        accept_thread,
    })
}

/// Handler threads parked between connections, most recently parked
/// last; `None` once the server has stopped.
type Idle = Mutex<Option<Vec<Sender<TcpStream>>>>;

/// Parks the calling handler thread until the accept loop hands it a
/// connection; `None` once the server stops.
fn park(idle: &Idle) -> Option<TcpStream> {
    let (tx, rx) = mpsc::channel();
    idle.lock().ok()?.as_mut()?.push(tx);
    rx.recv().ok()
}

/// Renders `v` as one line (text plus newline) for a single write.
fn line_of(v: &Json) -> Result<String, String> {
    let mut text = v.render_compact().map_err(|e| format!("render: {e}"))?;
    text.push('\n');
    Ok(text)
}

/// One connection: read request lines, write response lines, until EOF
/// or server shutdown.
///
/// Reads carry a short timeout so an idle connection re-checks the stop
/// flag instead of blocking forever — without it, `ServerHandle::stop`
/// would deadlock joining a handler that is parked in a read on a
/// still-open client.
fn handle_connection(
    stream: TcpStream,
    state: &Mutex<ServerState>,
    stop: &Stopper,
    inflight: &AtomicUsize,
    max_inflight: usize,
) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .and_then(|()| stream.set_nodelay(true))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // The partial line accumulated so far: a timeout can fire mid-line,
    // and `read_until` keeps whatever it already consumed in the buffer.
    let mut line = Vec::new();
    while !stop.stopped() {
        // At most one byte past the cap, newline included, so an
        // over-cap line is detected without buffering the rest of it.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break, // EOF
            Ok(_) if line.ends_with(b"\n") => {}
            Ok(_) if line.len() > MAX_LINE_BYTES => {
                let error = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                let text = line_of(&error_response(&Json::Null, &error)).unwrap_or_default();
                let _ = writer.write_all(text.as_bytes());
                // Close after the answer, draining at most another cap's
                // worth (until EOF or the read timeout) so that closing
                // on unread bytes does not reset the answer away.
                let _ = writer.shutdown(std::net::Shutdown::Write);
                let _ = std::io::copy(
                    &mut reader.take(MAX_LINE_BYTES as u64),
                    &mut std::io::sink(),
                );
                break;
            }
            Ok(_) => break, // EOF without newline: drop the fragment
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
        let Ok(request) = String::from_utf8(std::mem::take(&mut line)) else {
            break;
        };
        if request.trim().is_empty() {
            continue;
        }
        let resp = respond(&request, state, stop, inflight, max_inflight);
        let text = line_of(&resp).unwrap_or_else(|e| {
            // Unreachable for the timing-free integer/string payloads
            // the protocol emits, but never kill the connection over it.
            format!("{{\"ok\": false, \"error\": \"{e}\"}}\n")
        });
        if writer.write_all(text.as_bytes()).is_err() {
            break;
        }
        let _ = writer.flush();
    }
}

/// A failed response, echoing the request's `id` when it has one.
fn error_response(req: &Json, error: &str) -> Json {
    let mut pairs = Vec::new();
    if let Some(id) = req.get("id") {
        pairs.push(("id", id.clone()));
    }
    pairs.push(("ok", Json::Bool(false)));
    pairs.push(("error", Json::str(error)));
    Json::obj(pairs)
}

/// Parses and dispatches one request line under the in-flight bound.
///
/// No request can take the server down with it: a panic while handling
/// is answered as a failed response, later requests take the state
/// from a lock it poisoned, and the in-flight count drops on every
/// path.
fn respond(
    line: &str,
    state: &Mutex<ServerState>,
    stop: &Stopper,
    inflight: &AtomicUsize,
    max_inflight: usize,
) -> Json {
    let req = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::str(&format!("bad request line: {e}"))),
            ]);
        }
    };
    if inflight.fetch_add(1, Ordering::SeqCst) >= max_inflight {
        inflight.fetch_sub(1, Ordering::SeqCst);
        return error_response(
            &req,
            &format!("server busy ({max_inflight} requests in flight): retry"),
        );
    }
    let handled = panic::catch_unwind(AssertUnwindSafe(|| {
        // A panic poisons the lock but cannot leave a wrong answer
        // behind: every cache entry is inserted whole, after the work
        // that computed it, so at worst an entry is missing or a
        // statistic is off by one.
        let mut guard = state.lock().unwrap_or_else(PoisonError::into_inner);
        handle_request(&mut guard, &req)
    }));
    inflight.fetch_sub(1, Ordering::SeqCst);
    match handled {
        Ok((resp, outcome)) => {
            if outcome == Outcome::Shutdown {
                stop.stop();
            }
            resp
        }
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("unknown panic");
            error_response(&req, &format!("internal error: {what}"))
        }
    }
}

/// A line-delimited JSON client for one server connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// I/O errors from connecting.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request object and returns the raw response line —
    /// the bytes the byte-identity suites compare.
    ///
    /// # Errors
    ///
    /// One-line messages for I/O failures or a closed connection.
    pub fn request_line(&mut self, req: &Json) -> Result<String, String> {
        let text = line_of(req)?;
        self.writer
            .write_all(text.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(line.trim_end_matches('\n').to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Sends one request and parses the response object.
    ///
    /// # Errors
    ///
    /// I/O failures, or a response that is not valid JSON.
    pub fn request(&mut self, req: &Json) -> Result<Json, String> {
        let line = self.request_line(req)?;
        json::parse(&line).map_err(|e| format!("bad response: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_state_still_answers_and_releases_its_slot() {
        let state = Arc::new(Mutex::new(ServerState::new(1, 4)));
        let holder = Arc::clone(&state);
        let died = std::thread::spawn(move || {
            let _guard = holder.lock().unwrap();
            panic!("handler died holding the state");
        })
        .join();
        assert!(died.is_err() && state.is_poisoned());

        let stop = Stopper::new(SocketAddr::from((Ipv4Addr::LOCALHOST, 1)));
        let inflight = AtomicUsize::new(0);
        let requests = [
            r#"{"op": "ping", "id": 3}"#,
            r#"{"op": "ping", "id": 4}"#,
            r#"{"op": "verify", "id": 5, "doc": "d", "source": "fn main() { out(log, 1); }"}"#,
        ];
        for (id, line) in (3..).zip(requests) {
            let resp = respond(line, &state, &stop, &inflight, 4);
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(true),
                "{resp:?}"
            );
            assert_eq!(resp.get("id").and_then(Json::as_u64), Some(id));
            assert_eq!(inflight.load(Ordering::SeqCst), 0);
        }
        assert!(!stop.stopped());
    }

    #[test]
    fn an_over_cap_line_is_refused_and_the_server_keeps_serving() {
        let handle = serve(ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: 1,
            max_programs: 4,
            max_inflight: 4,
        })
        .unwrap();
        let ping = |client: &mut Client| {
            let pong = client.request(&Json::obj(vec![("op", Json::str("ping"))]));
            assert_eq!(pong.unwrap().get("pong"), Some(&Json::Bool(true)));
        };
        // A line exactly at the cap is read whole and answered.
        let mut at_cap = Client::connect(handle.addr).unwrap();
        let padding = " ".repeat(MAX_LINE_BYTES - r#"{"op": "ping"}"#.len());
        let line = format!("{{\"op\": \"ping\"{padding}}}\n");
        at_cap.writer.write_all(line.as_bytes()).unwrap();
        let mut answer = String::new();
        at_cap.reader.read_line(&mut answer).unwrap();
        assert!(answer.contains("\"pong\": true"), "{answer}");
        ping(&mut at_cap);

        // One byte past it is refused with one error line, then closed.
        let mut hostile = Client::connect(handle.addr).unwrap();
        let mut line = vec![b'x'; MAX_LINE_BYTES + 1];
        line.push(b'\n');
        hostile.writer.write_all(&line).unwrap();
        answer.clear();
        hostile.reader.read_line(&mut answer).unwrap();
        let resp = json::parse(&answer).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let error = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("exceeds"), "{error}");
        answer.clear();
        assert!(
            matches!(hostile.reader.read_line(&mut answer), Ok(0) | Err(_)),
            "the connection stays open: {answer}"
        );

        ping(&mut Client::connect(handle.addr).unwrap());
        handle.stop();
    }
}
