//! The generic function model: parameters → boot image + traces.
//!
//! Every Table 2 function is an instance of [`FunctionParams`] (see
//! [`crate::catalog`] for the twelve calibrated instances). A
//! [`Function`] binds parameters to a [`Layout`], builds the runtime
//! [`ScatterPool`] once, and can then produce:
//!
//! - the **boot image** — guest memory after boot + runtime init (what the
//!   *clean snapshot* freezes): kernel pages, the whole runtime pool, and
//!   stable data are non-zero;
//! - a **trace** for any [`Input`] — the invocation's page accesses in
//!   order: runtime working set (stable base + input-dependent variant),
//!   input ingest, stable-data reads, anonymous buffer writes, frees, and
//!   compute.

use sim_core::time::SimDuration;
use sim_mm::addr::PageRange;
use sim_vm::guest_memory::GuestMemory;
use sim_vm::trace::{Trace, TraceOp};

use crate::input::Input;
use crate::layout::{Layout, ScatterParams, ScatterPool};

/// How buffer pages grow with input scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferScaling {
    /// Independent of input size (ffmpeg's fixed 480p frame pipeline).
    Constant,
    /// Proportional to scale (decode buffers, HTML output).
    Linear,
    /// Proportional to scale squared (matmul's n×n matrices).
    Quadratic,
}

impl BufferScaling {
    /// Scale factor applied to the input-A buffer count.
    pub fn factor(&self, scale: f64) -> f64 {
        match self {
            BufferScaling::Constant => 1.0,
            BufferScaling::Linear => scale,
            BufferScaling::Quadratic => scale * scale,
        }
    }
}

/// Calibrated parameters of one evaluation function.
#[derive(Clone, Debug)]
pub struct FunctionParams {
    /// Function name as in Table 2.
    pub name: &'static str,
    /// One-line description (Table 2's "Description" column).
    pub description: &'static str,
    /// Deterministic seed for layout/order decisions.
    pub seed: u64,
    /// Runtime working-set pages touched by every invocation.
    pub runtime_base_pages: u64,
    /// Input-dependent runtime pages (different code paths per input).
    pub flow_variant_pages: u64,
    /// Total runtime pool pages loaded in the boot image (≥ base+variant).
    pub runtime_pool_pages: u64,
    /// Scatter shape of the runtime pool.
    pub scatter: ScatterParams,
    /// Long-lived non-zero data pages (list, model weights).
    pub stable_pages: u64,
    /// Fraction of stable data read per invocation.
    pub stable_read_frac: f64,
    /// Input A network payload (KiB); 0 for generated inputs.
    pub input_a_kb: u64,
    /// Input B network payload (KiB).
    pub input_b_kb: u64,
    /// Input B's workload magnitude relative to A.
    pub b_over_a: f64,
    /// Anonymous buffer pages written at input A scale.
    pub buffer_pages_a: u64,
    /// Buffer growth law.
    pub buffer_scaling: BufferScaling,
    /// Buffer pages written regardless of input (mmap's 512 MB region).
    pub fixed_buffer_pages: u64,
    /// Fraction of heap pages (payload + buffers) freed at request end.
    pub freed_frac: f64,
    /// Guest work per runtime page touched (µs).
    pub per_runtime_page_us: f64,
    /// Guest work per data page touched (µs).
    pub per_data_page_us: f64,
    /// Fixed guest work per invocation (ms).
    pub base_compute_ms: f64,
}

/// A function bound to a layout, ready to produce traces.
#[derive(Clone, Debug)]
pub struct Function {
    params: FunctionParams,
    layout: Layout,
    pool: ScatterPool,
}

impl Function {
    /// Binds `params` to `layout`, building the runtime pool.
    pub fn new(params: FunctionParams, layout: Layout) -> Self {
        assert!(
            params.runtime_pool_pages >= params.runtime_base_pages + params.flow_variant_pages,
            "{}: pool smaller than base+variant",
            params.name
        );
        assert!(
            params.stable_pages <= layout.stable_area.len(),
            "{}: stable data exceeds stable area",
            params.name
        );
        let pool = ScatterPool::build(
            layout.runtime_area,
            params.runtime_pool_pages,
            &params.scatter,
            params.seed,
        );
        Function {
            params,
            layout,
            pool,
        }
    }

    /// Binds to the default 2 GB layout.
    pub fn with_default_layout(params: FunctionParams) -> Self {
        Self::new(params, Layout::default())
    }

    /// Function name.
    pub fn name(&self) -> &'static str {
        self.params.name
    }

    /// Calibrated parameters.
    pub fn params(&self) -> &FunctionParams {
        &self.params
    }

    /// The layout this function is bound to.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The runtime page pool.
    pub fn pool(&self) -> &ScatterPool {
        &self.pool
    }

    /// Table 2's input A (record phase).
    pub fn input_a(&self) -> Input {
        Input::new(1.0, self.params.input_a_kb, 0xA)
    }

    /// Table 2's input B (test phase).
    pub fn input_b(&self) -> Input {
        Input::new(self.params.b_over_a, self.params.input_b_kb, 0xB)
    }

    /// An input scaled to `ratio`× input A (Figure 8), with fresh contents.
    pub fn input_scaled(&self, ratio: f64, seed: u64) -> Input {
        Input::new(
            ratio,
            (self.params.input_a_kb as f64 * ratio).round() as u64,
            seed,
        )
    }

    /// Buffer pages written for `input` (after heap clamping).
    pub fn buffer_pages(&self, input: &Input) -> u64 {
        let raw = (self.params.buffer_pages_a as f64
            * self.params.buffer_scaling.factor(input.scale))
        .round() as u64
            + self.params.fixed_buffer_pages;
        // The guest cannot allocate more than the heap; oversized workloads
        // reuse memory (extra passes add compute, not new pages).
        raw.min(self.heap_budget())
    }

    fn heap_budget(&self) -> u64 {
        // Leave room for the allocator offset and payload.
        self.layout.heap_pages().saturating_sub(4096)
    }

    /// Analytic working-set estimate for `input` (distinct pages touched).
    pub fn expected_ws_pages(&self, input: &Input) -> u64 {
        let p = &self.params;
        let stable = (p.stable_pages as f64 * p.stable_read_frac).round() as u64;
        p.runtime_base_pages
            + p.flow_variant_pages
            + stable
            + input.payload_pages()
            + self.buffer_pages(input)
    }

    /// Builds the post-boot guest memory (the clean snapshot's contents):
    /// kernel, the entire runtime pool, and stable data are non-zero. One
    /// bulk build from four write sources, applied in this order.
    pub fn boot_image(&self) -> GuestMemory {
        let kseed = self.params.seed ^ KERNEL_TOKEN_SEED;
        let kernel = self
            .layout
            .kernel
            .iter()
            .map(|page| (page, Trace::token_for(kseed, page)));
        let rseed = self.params.seed.wrapping_mul(0x9E37) | 1;
        let pool = self
            .pool
            .pages()
            .iter()
            .map(|&page| (page, Trace::token_for(rseed, page)));
        // Filler between nearby clusters: data of the same shared objects
        // that this function never touches (cold set, non-zero).
        let fseed = self.params.seed.wrapping_mul(0xF111) | 1;
        let filler = self
            .pool
            .small_gaps(16)
            .into_iter()
            .flat_map(|gap| gap.iter())
            .map(|page| (page, Trace::token_for(fseed, page)));
        let sseed = self.params.seed.wrapping_mul(0xC2B2) | 1;
        let stable = self
            .layout
            .stable_extent(self.params.stable_pages)
            .iter()
            .map(|page| (page, Trace::token_for(sseed, page)));
        GuestMemory::from_writes(
            self.layout.total_pages,
            kernel.chain(pool).chain(filler).chain(stable),
        )
    }

    /// Builds the invocation trace for `input`.
    pub fn trace(&self, input: &Input) -> Trace {
        let p = &self.params;
        let mut t = Trace::new();
        let us = SimDuration::from_micros_f64;

        // Request receipt and dispatch inside the guest server.
        t.push(TraceOp::Compute(SimDuration::from_micros_f64(
            p.base_compute_ms * 1000.0 * 0.25,
        )));

        // 1. Runtime working set: stable base in a stable access order,
        //    plus input-dependent flow-variant pages.
        let runtime_pages = self.pool.access_set(
            p.runtime_base_pages,
            p.flow_variant_pages,
            p.seed ^ 0x0BDE,
            input.seed.wrapping_mul(31).wrapping_add(p.seed),
        );
        if !runtime_pages.is_empty() {
            t.push(TraceOp::TouchList {
                pages: runtime_pages,
                write: false,
                per_page_compute: us(p.per_runtime_page_us),
                token_seed: 0,
            });
        }

        // 2. Ingest the network payload into fresh heap pages. Where the
        //    guest allocator places request-scoped memory varies with the
        //    input (allocator state, ASLR): different inputs land on
        //    substantially different heap pages, which is why even a
        //    same-size different-content invocation ("image-diff", §3.1)
        //    touches thousands of pages outside the previous working set.
        let alloc_jitter = Trace::token_for(input.seed | 1, 0xFEED) % 2048;
        let mut heap_cursor = self.layout.heap_base + alloc_jitter;
        let payload = input.payload_pages();
        let heap_start = heap_cursor;
        if payload > 0 {
            t.push(TraceOp::Touch {
                range: PageRange::with_len(heap_cursor, payload),
                stride: 1,
                write: true,
                per_page_compute: us(0.2),
                token_seed: input.seed | 1,
            });
            heap_cursor += payload;
        }

        // 3. Read stable data (the 512 MB list, model weights, ...).
        let stable_read = (p.stable_pages as f64 * p.stable_read_frac).round() as u64;
        if stable_read > 0 {
            t.push(TraceOp::Touch {
                range: PageRange::with_len(self.layout.stable_area.start, stable_read),
                stride: 1,
                write: false,
                per_page_compute: us(p.per_data_page_us),
                token_seed: 0,
            });
        }

        // 4. Anonymous work buffers (decode buffers, matrices, frames...).
        let buffers = self.buffer_pages(input);
        if buffers > 0 {
            t.push(TraceOp::Touch {
                range: PageRange::with_len(heap_cursor, buffers),
                stride: 1,
                write: true,
                per_page_compute: us(p.per_data_page_us),
                token_seed: input.seed.wrapping_add(7) | 1,
            });
            heap_cursor += buffers;

            // Oversized workloads that were clamped to the heap budget do
            // the remaining work by reusing memory: extra compute only.
            let raw = (p.buffer_pages_a as f64 * p.buffer_scaling.factor(input.scale)).round()
                as u64
                + p.fixed_buffer_pages;
            if raw > buffers {
                let extra = (raw - buffers) as f64 * p.per_data_page_us;
                t.push(TraceOp::Compute(us(extra)));
            }
        }

        // 5. Free request-scoped heap memory.
        let heap_used = heap_cursor - heap_start;
        let freed = (heap_used as f64 * p.freed_frac).round() as u64;
        if freed > 0 {
            t.push(TraceOp::Free {
                range: PageRange::with_len(heap_start, freed),
            });
        }

        // 6. Serialize and send the reply.
        t.push(TraceOp::Compute(SimDuration::from_micros_f64(
            p.base_compute_ms * 1000.0 * 0.75,
        )));
        t
    }
}

/// Token seed component for kernel pages.
const KERNEL_TOKEN_SEED: u64 = 0x5EED_0001;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn f(name: &str) -> Function {
        crate::by_name(name).unwrap()
    }

    #[test]
    fn buffer_scaling_laws() {
        assert_eq!(BufferScaling::Constant.factor(4.0), 1.0);
        assert_eq!(BufferScaling::Linear.factor(4.0), 4.0);
        assert_eq!(BufferScaling::Quadratic.factor(4.0), 16.0);
    }

    #[test]
    fn trace_phase_structure() {
        // image: runtime touch, payload ingest, buffer writes, free, tail.
        let image = f("image");
        let t = image.trace(&image.input_a());
        let kinds: Vec<&'static str> = t
            .ops
            .iter()
            .map(|op| match op {
                TraceOp::Compute(_) => "compute",
                TraceOp::Touch { write: true, .. } => "write",
                TraceOp::Touch { write: false, .. } => "read",
                TraceOp::TouchList { .. } => "runtime",
                TraceOp::Free { .. } => "free",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["compute", "runtime", "write", "write", "free", "compute"]
        );
    }

    #[test]
    fn freed_fraction_respected() {
        let image = f("image");
        let input = image.input_a();
        let t = image.trace(&input);
        let heap_written: u64 = t
            .ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Touch {
                    range, write: true, ..
                } => Some(range.len()),
                _ => None,
            })
            .sum();
        let freed: u64 = t
            .ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Free { range } => Some(range.len()),
                _ => None,
            })
            .sum();
        let frac = freed as f64 / heap_written as f64;
        let expect = image.params().freed_frac;
        assert!((frac - expect).abs() < 0.01, "freed {frac:.2} vs {expect}");
    }

    #[test]
    fn allocator_placement_varies_with_input_content() {
        let image = f("image");
        let heap_start = |input: &crate::Input| {
            image
                .trace(input)
                .ops
                .iter()
                .find_map(|op| match op {
                    TraceOp::Touch {
                        range, write: true, ..
                    } => Some(range.start),
                    _ => None,
                })
                .unwrap()
        };
        let a = heap_start(&image.input_a());
        let diff = heap_start(&image.input_a().reseeded(0xD1FF));
        assert_ne!(a, diff, "different contents allocate at different offsets");
        assert!(a.abs_diff(diff) < 4096, "jitter bounded");
    }

    #[test]
    fn stable_data_read_before_buffers() {
        let rl = f("read-list");
        let t = rl.trace(&rl.input_a());
        let stable_idx = t
            .ops
            .iter()
            .position(|op| {
                matches!(op, TraceOp::Touch { range, write: false, .. }
                    if range.start == rl.layout().stable_area.start)
            })
            .expect("stable read present");
        let buffer_idx = t
            .ops
            .iter()
            .position(|op| matches!(op, TraceOp::Touch { write: true, .. }))
            .expect("buffer write present");
        assert!(stable_idx < buffer_idx);
    }

    #[test]
    fn boot_image_filler_is_cold_not_ws() {
        // Filler pages are non-zero in the boot image but never in traces.
        let hello = f("hello-world");
        let img = hello.boot_image();
        let gaps = hello.pool().small_gaps(16);
        assert!(!gaps.is_empty());
        let trace_pages: std::collections::BTreeSet<u64> = {
            let t = hello.trace(&hello.input_a());
            let mut set = std::collections::BTreeSet::new();
            for op in &t.ops {
                if let TraceOp::TouchList { pages, .. } = op {
                    set.extend(pages.iter().copied());
                }
            }
            set
        };
        for gap in gaps.iter().take(20) {
            for p in gap.iter() {
                assert!(img.is_nonzero(p), "filler page {p} non-zero");
                assert!(!trace_pages.contains(&p), "filler page {p} untouched");
            }
        }
    }

    #[test]
    fn every_catalog_function_builds_consistent_traces() {
        for params in catalog::all_params() {
            let func = Function::with_default_layout(params);
            let t = func.trace(&func.input_b());
            assert!(t.access_count() > 0, "{}", func.name());
            assert!(t.compute_total() > SimDuration::ZERO, "{}", func.name());
            // All touched pages are within the guest.
            assert!(t.distinct_pages() < func.layout().total_pages);
        }
    }
}
