//! The seven-workload mobile suite, modeled after the Geekbench 5 workloads
//! the paper averages: HTML 5 rendering, AES encryption, text compression,
//! image compression, face detection, speech recognition and AI-based image
//! classification.

act_json::json_struct! {
    [ToJson]
    /// An abstract mobile workload.
    ///
    /// * `giga_instructions` — total dynamic instruction volume,
    /// * `memory_intensity` — 0 (pure compute) to 1 (memory bound); memory-bound
    ///   work gains little from core width or frequency,
    /// * `parallelism` — how many hardware threads the workload can keep busy.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_soc::Workload;
    /// let aes = Workload::new("AES", 8.0, 0.15, 4.0);
    /// assert_eq!(aes.name(), "AES");
    /// ```
    #[derive(Clone, Debug, PartialEq)]
    pub struct Workload {
        name: String,
        giga_instructions: f64,
        memory_intensity: f64,
        parallelism: f64,
    }
}

impl Workload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if the instruction volume or parallelism is not positive, or
    /// the memory intensity is outside `[0, 1]`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        giga_instructions: f64,
        memory_intensity: f64,
        parallelism: f64,
    ) -> Self {
        assert!(giga_instructions > 0.0, "instruction volume must be positive");
        assert!((0.0..=1.0).contains(&memory_intensity), "memory intensity must be in [0, 1]");
        assert!(parallelism >= 1.0, "parallelism must be at least one thread");
        Self { name: name.into(), giga_instructions, memory_intensity, parallelism }
    }

    /// Workload label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total dynamic instructions, in billions.
    #[must_use]
    pub fn giga_instructions(&self) -> f64 {
        self.giga_instructions
    }

    /// Memory-boundedness in `[0, 1]`.
    #[must_use]
    pub fn memory_intensity(&self) -> f64 {
        self.memory_intensity
    }

    /// Exploitable hardware threads.
    #[must_use]
    pub fn parallelism(&self) -> f64 {
        self.parallelism
    }
}

/// The seven-workload suite mirroring the paper's Geekbench 5 selection.
#[must_use]
pub fn geekbench_suite() -> Vec<Workload> {
    vec![
        Workload::new("HTML5 rendering", 12.0, 0.55, 2.0),
        Workload::new("AES encryption", 8.0, 0.15, 4.0),
        Workload::new("Text compression", 10.0, 0.45, 4.0),
        Workload::new("Image compression", 14.0, 0.30, 6.0),
        Workload::new("Face detection", 16.0, 0.35, 6.0),
        Workload::new("Speech recognition", 15.0, 0.50, 3.0),
        Workload::new("Image classification", 20.0, 0.40, 8.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_seven_workloads() {
        let suite = geekbench_suite();
        assert_eq!(suite.len(), 7);
        let names: Vec<_> = suite.iter().map(Workload::name).collect();
        assert!(names.contains(&"AES encryption"));
        assert!(names.contains(&"Image classification"));
    }

    #[test]
    fn suite_spans_compute_and_memory_bound_work() {
        let suite = geekbench_suite();
        assert!(suite.iter().any(|w| w.memory_intensity() < 0.2));
        assert!(suite.iter().any(|w| w.memory_intensity() > 0.5));
        assert!(suite.iter().any(|w| w.parallelism() >= 8.0));
        assert!(suite.iter().any(|w| w.parallelism() <= 2.0));
    }

    #[test]
    #[should_panic(expected = "memory intensity")]
    fn invalid_memory_intensity_rejected() {
        let _ = Workload::new("bad", 1.0, 1.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn invalid_parallelism_rejected() {
        let _ = Workload::new("bad", 1.0, 0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "instruction volume")]
    fn invalid_volume_rejected() {
        let _ = Workload::new("bad", 0.0, 0.5, 1.0);
    }
}
