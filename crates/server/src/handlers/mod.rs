//! Request dispatch and the per-connection serve loop.
//!
//! Handlers are pure functions `(&Request, &Shared) -> Result<Outcome,
//! HttpError>`: reads answer from the worker's lock-free snapshot
//! pointer, writes submit a command to the single writer thread and
//! block on its reply. Nothing on this path may panic — a malformed
//! request is a 4xx envelope, never a dead worker (the crate root denies
//! clippy's panic lints, which machine-check this).

pub(crate) mod admin;
pub(crate) mod ingest;
pub(crate) mod query;
pub(crate) mod tenant;

use crate::api_types::{self, error_code, error_status};
use crate::http::{self, HttpError, ReadOutcome, Request};
use crate::router::{self, Route};
use crate::{Cmd, Shared, WriterAck};
use rds_core::RdsError;
use serde::Deserialize;
use std::io::BufReader;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, SyncSender};
use std::time::Duration;

/// What a handler produced: status + JSON body, plus whether the
/// server should stop accepting connections once this is written.
pub(crate) struct Outcome {
    pub(crate) status: u16,
    pub(crate) body: String,
    pub(crate) shutdown: bool,
}

impl Outcome {
    /// A 200 with the given JSON body.
    pub(crate) fn ok(body: String) -> Self {
        Self {
            status: 200,
            body,
            shutdown: false,
        }
    }

    /// The envelope for an HTTP-level or handler-level rejection.
    pub(crate) fn from_http_error(e: &HttpError) -> Self {
        Self {
            status: e.status,
            body: api_types::envelope(e.code, &e.message),
            shutdown: false,
        }
    }
}

/// Routes and runs one request.
pub(crate) fn dispatch(req: &Request, shared: &Shared) -> Outcome {
    let route = match router::route(&req.method, &req.path) {
        Ok(r) => r,
        Err(e) => return Outcome::from_http_error(&e),
    };
    let result = match route {
        Route::Ingest => ingest::ingest(req, shared),
        Route::Query => query::query(req, shared, 1),
        Route::QueryK => query::query(req, shared, 10),
        Route::F0 => query::f0(shared),
        Route::Advance => admin::advance(req, shared),
        Route::CheckpointSave => admin::checkpoint_save(req, shared),
        Route::CheckpointRestore => admin::checkpoint_restore(req, shared),
        Route::Healthz => admin::healthz(shared),
        Route::Shutdown => admin::shutdown(req, shared),
        Route::TenantIngest(ref id) => tenant::ingest(req, shared, id),
        Route::TenantQuery(ref id) => tenant::query(req, shared, id, 1),
        Route::TenantQueryK(ref id) => tenant::query(req, shared, id, 10),
        Route::TenantF0(ref id) => tenant::f0(shared, id),
    };
    match result {
        Ok(outcome) => outcome,
        Err(e) => Outcome::from_http_error(&e),
    }
}

/// Parses a required JSON body into `T`.
pub(crate) fn parse_body<T: Deserialize>(req: &Request) -> Result<T, HttpError> {
    if req.body.trim().is_empty() {
        return Err(HttpError::new(
            400,
            "missing_body",
            "request body required (is Content-Length set?)",
        ));
    }
    serde_json::from_str(&req.body)
        .map_err(|e| HttpError::new(400, "bad_json", format!("malformed JSON body: {e}")))
}

/// Parses an optional JSON body: an absent/empty body is `T::default()`.
pub(crate) fn parse_body_or_default<T: Deserialize + Default>(
    req: &Request,
) -> Result<T, HttpError> {
    if req.body.trim().is_empty() {
        Ok(T::default())
    } else {
        serde_json::from_str(&req.body)
            .map_err(|e| HttpError::new(400, "bad_json", format!("malformed JSON body: {e}")))
    }
}

/// Submits one command to the writer thread and waits for its ack.
/// A writer that is already gone (post-shutdown race) answers `503`.
pub(crate) fn submit<F>(shared: &Shared, make: F) -> Result<WriterAck, HttpError>
where
    F: FnOnce(SyncSender<Result<WriterAck, RdsError>>) -> Cmd,
{
    let (reply, rx) = mpsc::sync_channel(1);
    if shared.cmd_tx.send(make(reply)).is_err() {
        return Err(HttpError::new(
            503,
            "shutting_down",
            "the writer has stopped; no further writes are accepted",
        ));
    }
    match rx.recv() {
        Ok(Ok(ack)) => Ok(ack),
        Ok(Err(e)) => Err(HttpError::new(
            error_status(&e),
            error_code(&e),
            e.to_string(),
        )),
        Err(_) => Err(HttpError::new(
            503,
            "shutting_down",
            "the writer exited before replying",
        )),
    }
}

/// Serves one connection until it closes: keep-alive loop, per-request
/// `catch_unwind` (belt and braces under the clippy panic lints — a
/// handler bug answers 500 instead of killing the worker thread).
pub(crate) fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(shared.read_timeout_ms.max(1))));
    let _ = stream.set_nodelay(true);
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match http::read_request(&mut reader, shared.max_body_bytes) {
            ReadOutcome::Closed => break,
            ReadOutcome::Error(e) => {
                let out = Outcome::from_http_error(&e);
                let _ = http::write_response(&mut writer, out.status, &out.body, false);
                break;
            }
            ReadOutcome::Request(req) => {
                let out = match catch_unwind(AssertUnwindSafe(|| dispatch(&req, shared))) {
                    Ok(o) => o,
                    Err(_) => Outcome {
                        status: 500,
                        body: api_types::envelope("internal_error", "handler panicked"),
                        shutdown: false,
                    },
                };
                // close after any error response: a rejected request may
                // have left unread body bytes on the wire, and parsing
                // those as the next request would desynchronize framing
                let keep = req.keep_alive
                    && out.status < 400
                    && !out.shutdown
                    && !shared.stopping.load(Ordering::SeqCst);
                let write_ok =
                    http::write_response(&mut writer, out.status, &out.body, keep).is_ok();
                if out.shutdown {
                    // Best-effort tenant durability on a client-initiated
                    // shutdown, mirroring ServerHandle::shutdown: park
                    // every resident sampler on disk so a restart on the
                    // same spill directory resumes them. A spill failure
                    // must not block the stop.
                    if let Some(reg) = &shared.tenants {
                        let _ = reg.spill_all();
                    }
                    shared.begin_stop();
                }
                if !keep || !write_ok {
                    break;
                }
            }
        }
    }
}
