//! Deterministic fuzzing of the bus frame decoder over the encoded frame
//! of every `Request` and `Response` variant.
//!
//! A SplitMix64 mutator applies bit flips, truncations at every header
//! cut (and anywhere in the payload), forged length prefixes and bytes
//! spliced in from other frames' payloads — sometimes re-sealing the
//! length prefix so the mutation reaches the JSON decoder behind it.
//! Properties: `read_frame` (through a reader that hands out a few bytes
//! per call) and `decode_frame` never panic and agree; every failure is
//! a typed framing or decode [`BusError`]; and peak heap use per decode
//! is bounded by the input size, whatever length the prefix claims. The
//! iteration count is fixed, so the run is the same everywhere.

mod common;

use common::{all_requests, all_responses};
use daemon::proto::{decode_frame, encode_frame, read_frame, BusError, HEADER_BYTES};
use serde::Deserialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::io::Read;

/// Tracks live and peak heap bytes allocated by the current thread.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its result and the peak extra heap bytes held by
/// this thread meanwhile.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let result = f();
    let peak = PEAK.with(Cell::get) - base;
    (result, peak.max(0) as usize)
}

/// Fixed heap a decode may hold whatever its input: the parser's and the
/// error message's small buffers.
const DECODE_OVERHEAD: usize = 4096;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// A reader that hands out at most `step` bytes per `read`, as a socket
/// delivering a frame in pieces does.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Outcome classes, in the order a frame's checks run.
const CLASSES: [&str; 7] =
    ["ok", "end", "truncated", "bad_magic", "bad_version", "too_large", "decode"];

fn class<T>(result: &Result<Option<T>, BusError>) -> usize {
    match result {
        Ok(Some(_)) => 0,
        Ok(None) => 1,
        Err(BusError::Truncated { .. }) => 2,
        Err(BusError::BadMagic { .. }) => 3,
        Err(BusError::BadVersion { .. }) => 4,
        Err(BusError::FrameTooLarge { .. }) => 5,
        Err(BusError::Decode { .. }) => 6,
        Err(e) => panic!("an in-memory frame surfaced {e:?}"),
    }
}

/// Decode `bytes` as a `T` both ways, checking the properties; returns
/// the outcome class.
fn check<T: Deserialize + PartialEq + Debug>(iteration: u64, bytes: &[u8], step: usize) -> usize {
    let run = || {
        let (direct, peak) = measured(|| decode_frame::<T>(bytes));
        let streamed = read_frame::<T, _>(&mut Trickle { bytes, step });
        (direct, streamed, peak)
    };
    let (direct, streamed, peak) = match std::panic::catch_unwind(run) {
        Ok(outcome) => outcome,
        Err(_) => panic!("iteration {iteration}: the frame decoder panicked"),
    };
    assert!(
        peak <= 8 * bytes.len() + DECODE_OVERHEAD,
        "iteration {iteration}: {peak} heap bytes for a {}-byte frame",
        bytes.len()
    );
    let got = class(&direct);
    assert_eq!(got, class(&streamed), "iteration {iteration}: {direct:?} vs {streamed:?}");
    if let (Ok(Some(a)), Ok(Some(b))) = (&direct, &streamed) {
        assert_eq!(a, b, "iteration {iteration}");
    }
    assert_eq!(got == 1, bytes.is_empty(), "iteration {iteration}: {direct:?}");
    if !bytes.is_empty() && bytes.len() < HEADER_BYTES {
        assert_eq!(got, 2, "iteration {iteration}: {direct:?}");
    }
    got
}

/// Point the length prefix at the payload that follows it.
fn reseal(frame: &mut [u8]) {
    if frame.len() >= HEADER_BYTES {
        let len = (frame.len() - HEADER_BYTES) as u32;
        frame[6..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    }
}

#[test]
fn mutated_frames_fail_only_with_typed_errors() {
    const ITERATIONS: u64 = 3000;
    // (is_request, frame) for every variant in the shared corpus.
    let frames: Vec<(bool, Vec<u8>)> = all_requests()
        .iter()
        .map(|m| (true, encode_frame(m).expect("encode")))
        .chain(all_responses().iter().map(|m| (false, encode_frame(m).expect("encode"))))
        .collect();
    let mut rng = SplitMix64(0xb05f_7a3e_0bad_f00d);
    let mut seen = [0u32; CLASSES.len()];

    for iteration in 0..ITERATIONS {
        let (is_request, clean) = &frames[rng.below(frames.len())];
        let mut bytes = clean.clone();
        for _ in 0..1 + rng.below(3) {
            match rng.below(4) {
                0 => {
                    let at = rng.below(bytes.len());
                    if let Some(b) = bytes.get_mut(at) {
                        *b ^= 1 << rng.below(8);
                    }
                }
                1 => {
                    let at = if rng.below(2) == 0 {
                        rng.below(HEADER_BYTES + 1)
                    } else {
                        rng.below(bytes.len() + 1)
                    };
                    bytes.truncate(at);
                }
                2 if bytes.len() >= HEADER_BYTES => {
                    let forged = (rng.next() >> rng.below(64)) as u32;
                    bytes[6..HEADER_BYTES].copy_from_slice(&forged.to_le_bytes());
                }
                _ if bytes.len() >= HEADER_BYTES => {
                    let donor = &frames[rng.below(frames.len())].1[HEADER_BYTES..];
                    let from = rng.below(donor.len());
                    let piece = &donor[from..(from + 1 + rng.below(16)).min(donor.len())];
                    let at = HEADER_BYTES + rng.below(bytes.len() - HEADER_BYTES + 1);
                    if rng.below(2) == 0 {
                        bytes.splice(at..at, piece.iter().copied());
                    } else {
                        let end = (at + piece.len()).min(bytes.len());
                        bytes.splice(at..end, piece.iter().copied());
                    }
                    if rng.below(2) == 0 {
                        reseal(&mut bytes);
                    }
                }
                _ => {}
            }
        }
        let step = 1 + rng.below(HEADER_BYTES + 8);
        let got = if *is_request {
            check::<daemon::proto::Request>(iteration, &bytes, step)
        } else {
            check::<daemon::proto::Response>(iteration, &bytes, step)
        };
        seen[got] += 1;
    }
    // Every stage of the decoder was reached, and some mutations survive.
    for (name, &n) in CLASSES.iter().zip(&seen) {
        assert!(n > 0, "no mutated frame ended as {name}: {seen:?}");
    }
}

#[test]
fn forged_lengths_allocate_only_what_arrives() {
    // A prefix claiming up to the frame cap over a short payload must not
    // reserve the claimed length before the bytes arrive.
    let mut frame = encode_frame(&all_requests()[0]).expect("encode");
    for claim in [64u32, 4096, 1 << 20, daemon::proto::MAX_FRAME_BYTES] {
        frame[6..HEADER_BYTES].copy_from_slice(&claim.to_le_bytes());
        let (result, peak) = measured(|| decode_frame::<daemon::proto::Request>(&frame));
        let arrived = frame.len() - HEADER_BYTES;
        assert!(
            matches!(result, Err(BusError::Truncated { got, .. }) if got == arrived),
            "claim {claim}: {result:?}"
        );
        assert!(peak <= 8 * frame.len() + DECODE_OVERHEAD, "claim {claim}: {peak} bytes");
    }
}
