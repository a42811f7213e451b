//! The same values handed down as arguments; `temp_dir` and the
//! compile-time `env!` are not run inputs.

pub struct Options {
    pub full: bool,
    pub threads: usize,
}

pub fn paper_scale(opts: &Options) -> bool {
    opts.full
}

pub fn scratch_file() -> std::path::PathBuf {
    std::env::temp_dir().join(concat!(env!("CARGO_PKG_NAME"), ".tmp"))
}
