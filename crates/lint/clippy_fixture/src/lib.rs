//! Deliberate violations of the rules the workspace hands to clippy,
//! next to the guards that must stay silent. Lines are load-bearing:
//! `crates/lint/tests/clippy_rules.rs` asserts the exact set of
//! (line, lint) findings.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::cast_possible_truncation,
    )
)]

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::time::{Instant, SystemTime};

// ---- panics: formerly L1 (core/engine/facade), L8 (server), L9 (tenant)

pub fn bad_unwrap(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn bad_expect(header: Option<u64>) -> u64 {
    header.expect("content-length present")
}

pub fn bad_panic(route: &str) {
    panic!("no handler for {route}");
}

pub fn bad_unreachable(x: u32) -> u32 {
    match x {
        0 => 1,
        _ => unreachable!(),
    }
}

pub fn bad_todo() -> u32 {
    todo!()
}

pub fn bad_unimplemented() -> u32 {
    unimplemented!()
}

pub fn bad_result_unwrap(r: Result<u64, String>) -> u64 {
    r.unwrap()
}

// guard: `.get()` and a pattern are the sanctioned spellings
pub fn good_get(xs: &[u32]) -> Option<&u32> {
    xs.first()
}

pub fn good_pattern(v: Option<u32>) -> bool {
    matches!(v, Some(0))
}

// ---- the escape hatch: `#[expect(lint, reason)]`, never `#[allow]`

// guard: a reasoned expectation that is fulfilled stays silent
#[expect(clippy::unwrap_used, reason = "the caller checked is_some")]
pub fn documented_invariant(v: Option<u32>) -> u32 {
    v.unwrap()
}

// a reasonless allow is two findings and still suppresses the unwrap
#[allow(clippy::unwrap_used)]
pub fn bare_allow(v: Option<u32>) -> u32 {
    v.unwrap()
}

// a stale expectation: nothing here unwraps
#[expect(clippy::unwrap_used, reason = "left behind by a refactor")]
pub fn stale_expect(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}

// an expectation aimed at the wrong lint suppresses nothing
#[expect(clippy::panic, reason = "aimed at the wrong lint")]
pub fn wrong_lint(v: Option<u32>) -> u32 {
    v.unwrap()
}

// ---- raw writes: formerly L2

pub fn bad_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, bytes)
}

pub fn bad_create(path: &Path) -> std::io::Result<File> {
    File::create(path)
}

pub fn bad_rename(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::rename(from, to)
}

pub fn bad_open_options(path: &Path) -> std::io::Result<File> {
    OpenOptions::new().write(true).open(path)
}

// guard: reading is unrestricted, and a local named `write` is no call
pub fn good_read(path: &Path) -> std::io::Result<Vec<u8>> {
    let write = path.as_os_str().len();
    let _ = write;
    std::fs::read(path)
}

// ---- ambient clocks: formerly L3

pub fn bad_instant() -> Instant {
    Instant::now()
}

pub fn bad_system_time() -> SystemTime {
    SystemTime::now()
}

// guard: a method named `now` on our own clock type is fine
pub struct StreamClock(u64);

impl StreamClock {
    pub fn now(&self) -> u64 {
        self.0
    }
}

pub fn good_own_clock(clock: &StreamClock) -> u64 {
    clock.now()
}

// ---- truncating casts: formerly L7 (clock/accounting names only; the
// clippy lint covers every narrowing cast)

pub fn bad_stamp_narrow(item_stamp: u64) -> u32 {
    item_stamp as u32
}

pub fn bad_epoch_to_usize(epoch: u64) -> usize {
    epoch as usize
}

pub fn bad_field(rep_stamp: u64) -> i32 {
    rep_stamp as i32
}

pub fn bad_unprotected(count: u64) -> u32 {
    count as u32
}

// guard: widening and int-to-float conversions never truncate
pub fn good_widen(seen_lo: u32) -> u64 {
    u64::from(seen_lo)
}

pub fn good_float(words: usize) -> f64 {
    words as f64
}

pub fn good_try_from(epoch: u64) -> Option<u32> {
    u32::try_from(epoch).ok()
}
