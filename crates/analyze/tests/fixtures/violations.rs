//! Fixture with one known violation per rule. Line numbers are asserted
//! by `tests/textual.rs` — keep them stable when editing.

pub fn act001_raw_escape(q: act_units::Energy) -> f64 {
    q.base()
}

pub fn act002_unwrap(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn act002_expect(v: Option<u32>) -> u32 {
    v.expect("present")
}

pub fn act003_literal(hours: f64) -> f64 {
    hours * 3600.0
}

pub fn act004_infallible(raw: f64) -> act_units::Energy {
    act_units::Energy::from_base(raw)
}

pub fn act005_debug(x: u32) -> u32 {
    dbg!(x)
}

pub fn act012_raw_spawn() {
    std::thread::spawn(|| ()).join().ok();
}
