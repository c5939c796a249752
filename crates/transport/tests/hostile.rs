//! Hostile bytes into the bulk receive path: a peer that announces a huge
//! body must not make the receiver allocate for the announcement. Measured
//! with a counting allocator, which is why this is a test binary of its
//! own with a single test (nothing else allocates while it counts).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ttg_transport::{FrameCodec, FrameError, MAX_FRAME};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Length prefix + kind + `from`, `handler`, `seq` of an `Am` announcing
/// `len` bytes of kind-plus-body.
fn am_head(len: usize) -> Vec<u8> {
    let mut head = (len as u32).to_le_bytes().to_vec();
    head.push(1); // K_AM
    head.extend_from_slice(&[0u8; 16]);
    head
}

#[test]
fn an_announced_length_costs_the_bytes_received_not_the_bytes_announced() {
    // The largest frame the cap admits, followed by 10 bytes of body.
    let mut bytes = am_head(MAX_FRAME);
    bytes.extend_from_slice(&[7u8; 10]);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut codec = FrameCodec::new();
    let mut frames = 0;
    codec
        .feed(&bytes, &mut |_| frames += 1)
        .expect("a valid prefix");
    let grew = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(frames, 0);
    assert!(
        grew <= 512 * 1024,
        "31 bytes received, {grew} bytes allocated"
    );

    // It grows with what arrives: 2 MiB more of the body, one fed and
    // one read in place.
    let chunk = vec![7u8; 1 << 20];
    codec
        .feed(&chunk, &mut |_| frames += 1)
        .expect("body bytes");
    let mut scratch = vec![0u8; 4096];
    let mut more: &[u8] = &chunk;
    // The stream ends inside the body: a structured error, never a panic.
    let end = codec.read_from(&mut more, &mut scratch, &mut |_| frames += 1);
    assert_eq!(end.unwrap_err().kind(), std::io::ErrorKind::UnexpectedEof);
    let grew = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(frames, 0);
    assert!(grew <= 8 << 20, "2 MiB received, {grew} bytes allocated");
    drop(codec);

    // One byte over the cap is refused from the prefix alone, on both
    // entry points, whatever the kind byte says.
    let over = am_head(MAX_FRAME + 1);
    let refused = |e: FrameError| assert_eq!(e, FrameError::TooLarge { len: MAX_FRAME + 1 });
    refused(FrameCodec::new().feed(&over, &mut |_| {}).unwrap_err());
    refused(FrameCodec::new().feed(&over[..4], &mut |_| {}).unwrap_err());
    let mut staged = FrameCodec::new();
    staged
        .feed(&over[..3], &mut |_| {})
        .expect("a partial prefix");
    let e = staged
        .read_from(&mut &over[3..], &mut scratch, &mut |_| {})
        .unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    let inner = e
        .into_inner()
        .expect("a FrameError inside")
        .downcast::<FrameError>();
    refused(*inner.expect("a FrameError inside"));
}
