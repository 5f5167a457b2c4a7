//! ACT006 positive fixture: an `obj!` literal repeats a key, so the later
//! value silently overwrites the first.

pub fn body(cpu: f64) -> JsonValue {
    let unique = obj! { "cpu_area_mm2": cpu, "dram_gb": cpu * 2.0 };
    obj! {
        "params": unique,
        "cpu_area_mm2": cpu,
        "dram_gb": cpu * 2.0,
        "cpu_area_mm2": cpu * 2.0
    }
}

act_json::json_struct! {
    [ToJson, FromJson]
    pub struct ModelParams {
        pub cpu_area_mm2: f64,
        pub dram_gb: f64,
    }
}
