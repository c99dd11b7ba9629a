//! The simulated execution platform: device profiles and per-framework
//! host overheads.
//!
//! The paper evaluates on two NVIDIA GPUs; we model each as launch overhead
//! plus a roofline (memory bandwidth vs. FLOP throughput). The *framework*
//! overheads (eager dispatch, compiled-runtime dispatch, Python-driven
//! control flow) are what separate the four compared pipelines at equal
//! device work — §5.3 attributes TorchDynamo's gap on loop-heavy workloads
//! exactly to its Python-interpreted control flow.

/// A simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Fixed cost of one kernel launch, in nanoseconds.
    pub launch_overhead_ns: f64,
    /// Global-memory bandwidth, in bytes per nanosecond (= GB/s × 10⁻⁹).
    pub bytes_per_ns: f64,
    /// FP32 throughput, in flops per nanosecond (= GFLOPS × 10⁻⁹).
    pub flops_per_ns: f64,
}

impl DeviceProfile {
    /// The consumer platform of the paper (GTX 1660 Ti class: ~288 GB/s,
    /// ~5.4 TFLOPS).
    pub fn consumer() -> DeviceProfile {
        DeviceProfile {
            name: "consumer-1660ti",
            launch_overhead_ns: 5_000.0,
            bytes_per_ns: 288.0,
            flops_per_ns: 5_400.0,
        }
    }

    /// The data-center platform of the paper (RTX 3090 class: ~936 GB/s,
    /// ~35.6 TFLOPS).
    pub fn datacenter() -> DeviceProfile {
        DeviceProfile {
            name: "datacenter-3090",
            launch_overhead_ns: 3_500.0,
            bytes_per_ns: 936.0,
            flops_per_ns: 35_600.0,
        }
    }

    /// Roofline time for one kernel moving `bytes` and computing `flops`,
    /// excluding launch overhead.
    pub fn kernel_work_ns(&self, bytes: u64, flops: u64) -> f64 {
        (bytes as f64 / self.bytes_per_ns).max(flops as f64 / self.flops_per_ns)
    }
}

/// Execution configuration: a device plus the framework overheads of the
/// pipeline being modelled.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecConfig {
    /// The simulated device.
    pub device: DeviceProfile,
    /// Host-side cost of dispatching one tensor operator (framework
    /// dispatch, shape checks, allocator).
    pub host_dispatch_ns: f64,
    /// Host-side cost of one scalar/bookkeeping operator.
    pub host_scalar_ns: f64,
    /// Host-side cost charged per control-flow block entry (loop iteration
    /// or branch) — high when control flow runs under a Python interpreter.
    pub control_entry_ns: f64,
    /// Extra stall charged when a device value must be synchronized to the
    /// host (`aten::item`).
    pub sync_ns: f64,
}

impl ExecConfig {
    /// Eager-mode framework: Python dispatch on every op.
    pub fn eager() -> ExecConfig {
        ExecConfig {
            device: DeviceProfile::consumer(),
            host_dispatch_ns: 3_000.0,
            host_scalar_ns: 300.0,
            control_entry_ns: 800.0,
            sync_ns: 10_000.0,
        }
    }

    /// A compiled runtime (TorchScript interpreter / generated code):
    /// cheap dispatch, compiled control flow.
    pub fn compiled() -> ExecConfig {
        ExecConfig {
            device: DeviceProfile::consumer(),
            host_dispatch_ns: 1_200.0,
            host_scalar_ns: 60.0,
            control_entry_ns: 100.0,
            sync_ns: 6_000.0,
        }
    }

    /// Tracing JIT with Python-resident control flow (TorchDynamo-style):
    /// compiled regions dispatch cheaply but every control-flow entry pays a
    /// guard-check / graph-break penalty in the Python interpreter.
    pub fn traced_python_control() -> ExecConfig {
        ExecConfig {
            device: DeviceProfile::consumer(),
            host_dispatch_ns: 1_000.0,
            host_scalar_ns: 300.0,
            control_entry_ns: 2_500.0,
            sync_ns: 10_000.0,
        }
    }

    /// Replace the device, keeping framework overheads.
    pub fn with_device(mut self, device: DeviceProfile) -> ExecConfig {
        self.device = device;
        self
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::compiled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_picks_binding_resource() {
        let d = DeviceProfile::consumer();
        // Memory-bound: many bytes, few flops.
        let mem = d.kernel_work_ns(1_000_000, 10);
        assert!((mem - 1_000_000.0 / 288.0).abs() < 1e-6);
        // Compute-bound: few bytes, many flops.
        let cmp = d.kernel_work_ns(8, 1_000_000_000);
        assert!((cmp - 1_000_000_000.0 / 5_400.0).abs() < 1e-3);
    }

    #[test]
    fn profiles_are_ordered_sensibly() {
        let c = DeviceProfile::consumer();
        let d = DeviceProfile::datacenter();
        assert!(d.bytes_per_ns > c.bytes_per_ns);
        assert!(d.flops_per_ns > c.flops_per_ns);
        let eager = ExecConfig::eager();
        let compiled = ExecConfig::compiled();
        assert!(eager.host_dispatch_ns > compiled.host_dispatch_ns);
        let dynamo = ExecConfig::traced_python_control();
        assert!(dynamo.control_entry_ns > compiled.control_entry_ns);
    }
}
