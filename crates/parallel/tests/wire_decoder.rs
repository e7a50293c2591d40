//! Property tests for the frame decoder on bytes as a socket may deliver
//! them: arbitrary garbage, header-shaped garbage, and valid multi-frame
//! streams cut at every offset. Every frame of the rank transport goes
//! through [`read_frame`], so a hostile or torn stream must end in a typed
//! `io::Error` — never a panic, a hang or a frame nobody sent.
//!
//! A counting `#[global_allocator]` (per thread, so the tests do not see
//! one another) holds the decoder to allocating what arrives, not what a
//! header declares.

use mqmd_parallel::wire::{read_frame, write_frame, Frame, FrameKind, HEADER_LEN, MAX_PAYLOAD};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

thread_local! {
    /// The largest single allocation (or reallocation) this thread made
    /// while `WATCHING`.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static WATCHING: Cell<bool> = const { Cell::new(false) };
}

struct WatchingAllocator;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing to watch.
    if WATCHING.try_with(Cell::get).unwrap_or(false) {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; watching touches
// no memory the allocator hands out.
unsafe impl GlobalAlloc for WatchingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: WatchingAllocator = WatchingAllocator;

/// The largest single allocation this thread makes inside `f`.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    WATCHING.with(|w| w.set(true));
    let out = f();
    WATCHING.with(|w| w.set(false));
    (out, LARGEST.with(Cell::get))
}

/// Reads frames off `bytes` until a clean end (`Ok`) or an error.
fn decode_all(bytes: &[u8]) -> (Vec<Frame>, io::Result<()>) {
    let mut stream = bytes;
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut stream) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, Ok(())),
            Err(e) => return (frames, Err(e)),
        }
    }
}

fn encode(frames: &[Frame]) -> Vec<u8> {
    let mut buf = Vec::new();
    for f in frames {
        write_frame(&mut buf, f).unwrap();
    }
    buf
}

/// A header declaring the largest payload the decoder accepts, then ten
/// bytes of it and EOF: a typed torn-payload error, after allocating
/// nowhere near the declared gigabyte.
#[test]
fn a_header_alone_cannot_reserve_the_declared_payload() {
    let mut bytes = MAX_PAYLOAD.to_le_bytes().to_vec();
    bytes.push(FrameKind::Data as u8);
    bytes.extend_from_slice(&[0; 12]); // src, dest, epoch
    assert_eq!(bytes.len(), HEADER_LEN);
    bytes.extend_from_slice(&[7; 10]);
    let (out, largest) = largest_allocation(|| read_frame(&mut &bytes[..]));
    let err = out.expect_err("ten bytes of a declared gigabyte are a torn frame");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    assert!(
        largest < 1 << 20,
        "largest allocation {largest} B for 10 B of payload"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Garbage decodes to `Ok`/`Err` without panicking, and every frame it
    /// yields is exactly the bytes it consumed: re-encoding the frames
    /// gives back a prefix of the input, the whole input on a clean end.
    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let (frames, end) = decode_all(&bytes);
        let consumed = encode(&frames);
        prop_assert!(bytes.starts_with(&consumed));
        if end.is_ok() {
            prop_assert_eq!(consumed.len(), bytes.len());
        }
    }

    /// Header-shaped garbage (a small length prefix, any kind byte, any
    /// tail) reaches the kind check and the payload read, which uniform
    /// bytes almost never do.
    #[test]
    fn header_shaped_bytes_decode_or_fail_typed(
        len in 0u32..48,
        kind in any::<u8>(),
        tail in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.push(kind);
        bytes.extend_from_slice(&tail);
        let (frames, end) = decode_all(&bytes);
        let whole = bytes.len() >= HEADER_LEN + len as usize;
        let known = FrameKind::ALL.iter().any(|&k| k as u8 == kind);
        if known && whole {
            let first = &frames[0];
            prop_assert_eq!(first.kind as u8, kind);
            prop_assert_eq!(&first.payload[..], &bytes[HEADER_LEN..HEADER_LEN + len as usize]);
        } else {
            prop_assert!(frames.is_empty());
            prop_assert!(end.is_err());
        }
        prop_assert!(bytes.starts_with(&encode(&frames)));
    }

    /// Every prefix of a valid stream yields exactly the whole frames it
    /// contains, then a clean `Ok(None)` when the cut falls on a frame
    /// boundary or an `UnexpectedEof` error when it falls inside a frame.
    #[test]
    fn every_prefix_yields_its_whole_frames_then_a_clean_or_torn_end(
        kinds in prop::collection::vec(0usize..12, 2..6),
        lens in prop::collection::vec(0usize..24, 6..7),
        epoch in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 24..25),
    ) {
        let sent: Vec<Frame> = kinds
            .iter()
            .zip(&lens)
            .enumerate()
            .map(|(i, (&k, &n))| Frame {
                kind: FrameKind::ALL[k],
                src: i as u32,
                dest: (i as u32 + 1) % 4,
                epoch: epoch.wrapping_add(i as u32),
                payload: payload[..n].to_vec(),
            })
            .collect();
        let stream = encode(&sent);
        // Offsets at which each frame ends.
        let mut ends = Vec::new();
        let mut at = 0;
        for f in &sent {
            at += HEADER_LEN + f.payload.len();
            ends.push(at);
        }
        for cut in 0..=stream.len() {
            let (frames, end) = decode_all(&stream[..cut]);
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            prop_assert_eq!(&frames[..], &sent[..whole], "cut {}", cut);
            if cut == 0 || ends.contains(&cut) {
                prop_assert!(end.is_ok(), "cut {} at a boundary: {:?}", cut, end);
            } else {
                let kind = end.as_ref().map_err(|e| e.kind());
                prop_assert_eq!(kind, Err(io::ErrorKind::UnexpectedEof), "cut {}", cut);
            }
        }
    }
}
