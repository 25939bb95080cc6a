//! Applications: dataflow DAGs of kernels executed over a data stream.

use serde::{Deserialize, Serialize};

use crate::graph::DataflowInfo;
use crate::{Cycles, DataId, DataKind, DataObject, Kernel, KernelId, ModelError, Words};

/// A complete application: kernels, the data objects they exchange, and
/// the number of streaming iterations.
///
/// Multimedia and DSP applications "are composed of a sequence of kernels
/// that are consecutively executed over a part of the input data, until
/// all the data are processed"; `iterations` is that outer trip count
/// (`n` in the paper — e.g. the number of macroblocks of a frame).
///
/// Construct with [`ApplicationBuilder`]; a built application is always
/// valid (dense ids, single producers, acyclic dataflow).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    name: String,
    kernels: Vec<Kernel>,
    data: Vec<DataObject>,
    iterations: u64,
}

impl Application {
    /// The application's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All kernels, indexed by [`KernelId`].
    #[must_use]
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// All data objects, indexed by [`DataId`].
    #[must_use]
    pub fn data(&self) -> &[DataObject] {
        &self.data
    }

    /// Number of streaming iterations (`n` in the paper).
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The same application run for `n` streaming iterations: its
    /// kernels and data objects are copied as they are, and only the
    /// new count is checked, so a validated application stays valid.
    ///
    /// # Errors
    ///
    /// [`ModelError::ZeroIterations`] if `n == 0`.
    pub fn with_iterations(&self, n: u64) -> Result<Application, ModelError> {
        if n == 0 {
            return Err(ModelError::ZeroIterations);
        }
        Ok(Application {
            name: self.name.clone(),
            kernels: self.kernels.clone(),
            data: self.data.clone(),
            iterations: n,
        })
    }

    /// Looks up a kernel by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this application. Untrusted
    /// ids (e.g. from deserialized input) go through
    /// [`try_kernel`](Self::try_kernel) instead.
    #[must_use]
    pub fn kernel(&self, id: KernelId) -> &Kernel {
        self.try_kernel(id)
            .unwrap_or_else(|e| panic!("{e} (of {} kernels)", self.kernels.len()))
    }

    /// Fallible kernel lookup for ids from untrusted sources.
    ///
    /// # Errors
    ///
    /// [`ModelError::NoSuchKernel`] if `id` does not belong to this
    /// application.
    pub fn try_kernel(&self, id: KernelId) -> Result<&Kernel, ModelError> {
        self.kernels
            .get(id.index())
            .ok_or(ModelError::NoSuchKernel(id))
    }

    /// Looks up a data object by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this application. Untrusted
    /// ids go through [`try_data_object`](Self::try_data_object)
    /// instead.
    #[must_use]
    pub fn data_object(&self, id: DataId) -> &DataObject {
        self.try_data_object(id)
            .unwrap_or_else(|e| panic!("{e} (of {} data objects)", self.data.len()))
    }

    /// Fallible data-object lookup for ids from untrusted sources.
    ///
    /// # Errors
    ///
    /// [`ModelError::NoSuchData`] if `id` does not belong to this
    /// application.
    pub fn try_data_object(&self, id: DataId) -> Result<&DataObject, ModelError> {
        self.data.get(id.index()).ok_or(ModelError::NoSuchData(id))
    }

    /// Size of one iteration's instance of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this application. Untrusted
    /// ids go through [`try_size_of`](Self::try_size_of) instead.
    #[must_use]
    pub fn size_of(&self, id: DataId) -> Words {
        self.data_object(id).size()
    }

    /// Fallible size lookup for ids from untrusted sources.
    ///
    /// # Errors
    ///
    /// [`ModelError::NoSuchData`] if `id` does not belong to this
    /// application.
    pub fn try_size_of(&self, id: DataId) -> Result<Words, ModelError> {
        Ok(self.try_data_object(id)?.size())
    }

    /// Computes producer/consumer relations and the kernel dependency
    /// graph. The result borrows nothing and can outlive `self`.
    #[must_use]
    pub fn dataflow(&self) -> DataflowInfo {
        DataflowInfo::compute(self)
    }

    /// Re-runs the builder's validation — use after constructing an
    /// application through Serde, which bypasses
    /// [`ApplicationBuilder::build`]'s checks.
    ///
    /// # Errors
    ///
    /// The same [`ModelError`]s as [`ApplicationBuilder::build`].
    pub fn validate(&self) -> Result<(), ModelError> {
        validate(self)
    }

    /// Total size of one iteration's external inputs, intermediate
    /// results and final results — `DS` ("total data size per iteration")
    /// in Table 1 of the paper.
    #[must_use]
    pub fn total_data_per_iteration(&self) -> Words {
        self.data.iter().map(DataObject::size).sum()
    }

    /// Sum of all kernels' context words.
    #[must_use]
    pub fn total_contexts(&self) -> u32 {
        self.kernels.iter().map(Kernel::contexts).sum()
    }
}

/// Incrementally builds a valid [`Application`].
///
/// # Example
///
/// ```
/// use mcds_model::{ApplicationBuilder, DataKind, Words, Cycles};
///
/// # fn main() -> Result<(), mcds_model::ModelError> {
/// let mut b = ApplicationBuilder::new("pipeline");
/// let raw = b.data("raw", Words::new(128), DataKind::ExternalInput);
/// let mid = b.data("mid", Words::new(64), DataKind::Intermediate);
/// let out = b.data("out", Words::new(64), DataKind::FinalResult);
/// let k0 = b.kernel("stage0", 8, Cycles::new(200), &[raw], &[mid]);
/// let k1 = b.kernel("stage1", 8, Cycles::new(180), &[mid], &[out]);
/// let app = b.iterations(64).build()?;
/// assert_eq!(app.dataflow().producer(mid), Some(k0));
/// assert_eq!(app.dataflow().consumers(mid), &[k1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ApplicationBuilder {
    name: String,
    kernels: Vec<Kernel>,
    data: Vec<DataObject>,
    iterations: u64,
    /// Set once a declaration would overflow the `u32` id space; the
    /// builder keeps accepting calls (ids saturate) and [`build`]
    /// reports the overflow as a typed error.
    ///
    /// [`build`]: ApplicationBuilder::build
    overflowed: bool,
}

impl ApplicationBuilder {
    /// Starts building an application with the given name and a default
    /// of one iteration.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ApplicationBuilder {
            name: name.into(),
            kernels: Vec::new(),
            data: Vec::new(),
            iterations: 1,
            overflowed: false,
        }
    }

    /// Declares a data object and returns its id.
    pub fn data(&mut self, name: impl Into<String>, size: Words, kind: DataKind) -> DataId {
        let Ok(index) = u32::try_from(self.data.len()) else {
            self.overflowed = true;
            return DataId::new(u32::MAX);
        };
        let id = DataId::new(index);
        self.data.push(DataObject::new(id, name, size, kind));
        id
    }

    /// Declares a kernel and returns its id. Kernel declaration order is
    /// the default program order.
    pub fn kernel(
        &mut self,
        name: impl Into<String>,
        contexts: u32,
        exec_cycles: Cycles,
        inputs: &[DataId],
        outputs: &[DataId],
    ) -> KernelId {
        let Ok(index) = u32::try_from(self.kernels.len()) else {
            self.overflowed = true;
            return KernelId::new(u32::MAX);
        };
        let id = KernelId::new(index);
        self.kernels.push(Kernel::new(
            id,
            name,
            contexts,
            exec_cycles,
            inputs.to_vec(),
            outputs.to_vec(),
        ));
        id
    }

    /// Sets the streaming iteration count (`n` in the paper).
    #[must_use]
    pub fn iterations(mut self, n: u64) -> Self {
        self.iterations = n;
        self
    }

    /// Validates and finalises the application.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the application is empty, runs zero
    /// iterations, references unknown or zero-sized data, has duplicate
    /// or missing producers, produces an external input, leaves an
    /// intermediate result unconsumed, contains a dependency cycle, or
    /// declared more objects than the `u32` id space holds.
    pub fn build(self) -> Result<Application, ModelError> {
        if self.overflowed {
            return Err(ModelError::IdSpaceExhausted);
        }
        let app = Application {
            name: self.name,
            kernels: self.kernels,
            data: self.data,
            iterations: self.iterations,
        };
        validate(&app)?;
        Ok(app)
    }
}

fn validate(app: &Application) -> Result<(), ModelError> {
    if app.kernels.is_empty() {
        return Err(ModelError::NoKernels);
    }
    if app.iterations == 0 {
        return Err(ModelError::ZeroIterations);
    }
    for d in &app.data {
        if d.size().is_zero() {
            return Err(ModelError::ZeroSizeData(d.id()));
        }
    }

    let n_data = app.data.len();
    let mut producer: Vec<Option<KernelId>> = vec![None; n_data];
    let mut consumed: Vec<bool> = vec![false; n_data];

    for k in &app.kernels {
        for group in [k.inputs(), k.outputs()] {
            let mut seen = Vec::with_capacity(group.len());
            for &d in group {
                if d.index() >= n_data {
                    return Err(ModelError::UnknownData {
                        kernel: k.id(),
                        data: d,
                    });
                }
                if seen.contains(&d) {
                    return Err(ModelError::DuplicateReference {
                        kernel: k.id(),
                        data: d,
                    });
                }
                seen.push(d);
            }
        }
        for &d in k.inputs() {
            consumed[d.index()] = true;
        }
        for &d in k.outputs() {
            if app.data[d.index()].kind().is_external_input() {
                return Err(ModelError::ProducedInput {
                    kernel: k.id(),
                    data: d,
                });
            }
            match producer[d.index()] {
                None => producer[d.index()] = Some(k.id()),
                Some(first) => {
                    return Err(ModelError::MultipleProducers {
                        data: d,
                        first,
                        second: k.id(),
                    })
                }
            }
        }
    }

    for d in &app.data {
        match d.kind() {
            DataKind::ExternalInput => {}
            DataKind::Intermediate => {
                if producer[d.id().index()].is_none() {
                    return Err(ModelError::NoProducer(d.id()));
                }
                if !consumed[d.id().index()] {
                    return Err(ModelError::DeadIntermediate(d.id()));
                }
            }
            DataKind::FinalResult => {
                if producer[d.id().index()].is_none() {
                    return Err(ModelError::NoProducer(d.id()));
                }
            }
        }
    }

    // Cycle detection over the kernel dependency graph via Kahn's
    // algorithm.
    let n = app.kernels.len();
    let mut indeg = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for k in &app.kernels {
        for &d in k.inputs() {
            if let Some(p) = producer[d.index()] {
                succs[p.index()].push(k.id().index());
                indeg[k.id().index()] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut visited = 0;
    while let Some(i) = ready.pop() {
        visited += 1;
        for &s in &succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    if visited != n {
        return Err(ModelError::DependencyCycle);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_stage() -> ApplicationBuilder {
        let mut b = ApplicationBuilder::new("t");
        let a = b.data("a", Words::new(10), DataKind::ExternalInput);
        let m = b.data("m", Words::new(5), DataKind::Intermediate);
        let r = b.data("r", Words::new(5), DataKind::FinalResult);
        b.kernel("k0", 4, Cycles::new(100), &[a], &[m]);
        b.kernel("k1", 4, Cycles::new(100), &[m], &[r]);
        b
    }

    #[test]
    fn builds_valid_application() {
        let app = three_stage().iterations(10).build().expect("valid");
        assert_eq!(app.name(), "t");
        assert_eq!(app.kernels().len(), 2);
        assert_eq!(app.data().len(), 3);
        assert_eq!(app.iterations(), 10);
        assert_eq!(app.total_data_per_iteration(), Words::new(20));
        assert_eq!(app.total_contexts(), 8);
        assert_eq!(app.kernel(KernelId::new(1)).name(), "k1");
        assert_eq!(app.data_object(DataId::new(0)).name(), "a");
        assert_eq!(app.size_of(DataId::new(1)), Words::new(5));
    }

    #[test]
    fn foreign_ids_are_typed_errors_not_panics() {
        let app = three_stage().iterations(10).build().expect("valid");
        assert_eq!(
            app.try_kernel(KernelId::new(9)).unwrap_err(),
            ModelError::NoSuchKernel(KernelId::new(9))
        );
        assert_eq!(
            app.try_data_object(DataId::new(9)).unwrap_err(),
            ModelError::NoSuchData(DataId::new(9))
        );
        assert_eq!(
            app.try_size_of(DataId::new(9)).unwrap_err(),
            ModelError::NoSuchData(DataId::new(9))
        );
        assert_eq!(
            app.try_kernel(KernelId::new(0)).expect("valid id").name(),
            "k0"
        );
        assert_eq!(
            app.try_size_of(DataId::new(2)).expect("valid id"),
            Words::new(5)
        );
    }

    #[test]
    fn rejects_empty() {
        let b = ApplicationBuilder::new("e");
        assert_eq!(b.build().unwrap_err(), ModelError::NoKernels);
    }

    #[test]
    fn rejects_zero_iterations() {
        let b = three_stage().iterations(0);
        assert_eq!(b.build().unwrap_err(), ModelError::ZeroIterations);
    }

    #[test]
    fn with_iterations_equals_building_at_that_count() {
        let once = three_stage().iterations(1).build().expect("valid");
        for n in [1, 2, 48] {
            let built = three_stage().iterations(n).build().expect("valid");
            assert_eq!(once.with_iterations(n), Ok(built));
        }
        assert_eq!(once.with_iterations(0), Err(ModelError::ZeroIterations));
    }

    #[test]
    fn rejects_zero_size_data() {
        let mut b = ApplicationBuilder::new("z");
        let a = b.data("a", Words::ZERO, DataKind::ExternalInput);
        let r = b.data("r", Words::new(1), DataKind::FinalResult);
        b.kernel("k", 1, Cycles::new(1), &[a], &[r]);
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::ZeroSizeData(DataId::new(0))
        );
    }

    #[test]
    fn rejects_unknown_data() {
        let mut b = ApplicationBuilder::new("u");
        let a = b.data("a", Words::new(1), DataKind::ExternalInput);
        let r = b.data("r", Words::new(1), DataKind::FinalResult);
        b.kernel("k", 1, Cycles::new(1), &[a, DataId::new(99)], &[r]);
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::UnknownData { .. }
        ));
    }

    #[test]
    fn rejects_duplicate_reference() {
        let mut b = ApplicationBuilder::new("d");
        let a = b.data("a", Words::new(1), DataKind::ExternalInput);
        let r = b.data("r", Words::new(1), DataKind::FinalResult);
        b.kernel("k", 1, Cycles::new(1), &[a, a], &[r]);
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::DuplicateReference { .. }
        ));
    }

    #[test]
    fn rejects_multiple_producers() {
        let mut b = ApplicationBuilder::new("m");
        let a = b.data("a", Words::new(1), DataKind::ExternalInput);
        let r = b.data("r", Words::new(1), DataKind::FinalResult);
        b.kernel("k0", 1, Cycles::new(1), &[a], &[r]);
        b.kernel("k1", 1, Cycles::new(1), &[a], &[r]);
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::MultipleProducers { .. }
        ));
    }

    #[test]
    fn rejects_no_producer() {
        let mut b = ApplicationBuilder::new("n");
        let a = b.data("a", Words::new(1), DataKind::ExternalInput);
        let orphan = b.data("o", Words::new(1), DataKind::FinalResult);
        let r = b.data("r", Words::new(1), DataKind::FinalResult);
        b.kernel("k", 1, Cycles::new(1), &[a], &[r]);
        let _ = orphan;
        assert!(matches!(b.build().unwrap_err(), ModelError::NoProducer(_)));
    }

    #[test]
    fn rejects_produced_input() {
        let mut b = ApplicationBuilder::new("p");
        let a = b.data("a", Words::new(1), DataKind::ExternalInput);
        b.kernel("k", 1, Cycles::new(1), &[], &[a]);
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::ProducedInput { .. }
        ));
    }

    #[test]
    fn rejects_dead_intermediate() {
        let mut b = ApplicationBuilder::new("di");
        let a = b.data("a", Words::new(1), DataKind::ExternalInput);
        let m = b.data("m", Words::new(1), DataKind::Intermediate);
        let r = b.data("r", Words::new(1), DataKind::FinalResult);
        b.kernel("k", 1, Cycles::new(1), &[a], &[m, r]);
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::DeadIntermediate(_)
        ));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = ApplicationBuilder::new("c");
        let x = b.data("x", Words::new(1), DataKind::Intermediate);
        let y = b.data("y", Words::new(1), DataKind::Intermediate);
        b.kernel("k0", 1, Cycles::new(1), &[y], &[x]);
        b.kernel("k1", 1, Cycles::new(1), &[x], &[y]);
        assert_eq!(b.build().unwrap_err(), ModelError::DependencyCycle);
    }

    #[test]
    fn deserialized_app_can_be_revalidated() {
        let app = three_stage().iterations(3).build().expect("valid");
        let json = serde_json::to_string(&app).expect("serialize");
        let back: Application = serde_json::from_str(&json).expect("deserialize");
        assert!(back.validate().is_ok());
        // Tampered JSON (zero iterations) deserializes but fails
        // revalidation.
        let tampered = json.replace("\"iterations\":3", "\"iterations\":0");
        let broken: Application = serde_json::from_str(&tampered).expect("deserialize");
        assert_eq!(broken.validate().unwrap_err(), ModelError::ZeroIterations);
    }

    #[test]
    fn serde_roundtrip() {
        let app = three_stage().iterations(7).build().expect("valid");
        let json = serde_json::to_string(&app).expect("serialize");
        let back: Application = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, app);
    }
}
