//! ACT006 negative fixture: every `obj!` key is unique, in nested literals
//! too.

pub fn body(cpu: f64) -> JsonValue {
    obj! {
        "cpu_area_mm2": cpu,
        "dram_gb": cpu * 2.0,
        "nested": obj! { "cpu_area_mm2": cpu }
    }
}

act_json::json_struct! {
    [ToJson, FromJson]
    pub struct ModelParams {
        pub cpu_area_mm2: f64,
        pub dram_gb: f64,
    }
}
