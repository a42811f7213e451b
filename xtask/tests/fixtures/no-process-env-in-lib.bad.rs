//! Planted violations: library code whose result depends on process
//! state nobody passed in.

pub fn paper_scale() -> bool {
    std::env::args().any(|a| a == "--full")
}

pub fn threads() -> usize {
    use std::env;
    env::var("TCN_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

pub fn pin_threads(n: usize) {
    std::env::set_var("TCN_THREADS", n.to_string());
}
