//! Round-trip probe: the cost of one blocking `get_geometry` round trip
//! and of one one-way `map_window` plus its `flush`, on a display with a
//! single client, with the transport's codec on and off. Prints one line
//! per figure, in nanoseconds per operation:
//!
//! ```text
//! codec on  get_geometry     712.4 ns/op
//! ```
//!
//! Run with: `cargo run -p tk-bench --release --example round_trip -- [N]`
//! (N operations per figure, default 200000). Compare builds by running
//! them alternately: one run's figures carry the host's noise.

use std::time::Instant;

use xsim::Display;

/// Nanoseconds per call of `op`, over `n` calls after `n / 10` warm-up
/// calls.
fn ns_per_op(n: u32, mut op: impl FnMut()) -> f64 {
    (0..n / 10).for_each(|_| op());
    let start = Instant::now();
    (0..n).for_each(|_| op());
    start.elapsed().as_nanos() as f64 / f64::from(n.max(1))
}

fn main() {
    let n = std::env::args().nth(1).map_or(200_000, |a| {
        a.parse().expect("N must be a count of operations")
    });
    for wire in [true, false] {
        let display = Display::new();
        display.set_wire(wire);
        let c = display.connect();
        let w = c
            .create_window(c.root(), 0, 0, 40, 20, 0)
            .expect("create a window");
        c.flush();
        let figures = [
            (
                "get_geometry",
                ns_per_op(n, || {
                    c.get_geometry(w).expect("geometry reply");
                }),
            ),
            (
                "map_window+flush",
                ns_per_op(n, || {
                    c.map_window(w);
                    c.flush();
                }),
            ),
        ];
        let codec = if wire { "on " } else { "off" };
        for (op, ns) in figures {
            println!("codec {codec} {op:<16} {ns:9.1} ns/op");
        }
    }
}
