//! The top-level simulator: builds the spatial design from a program and its
//! buffering analysis, then executes it cycle by cycle.

use crate::channel::Fifo;
use crate::config::SimConfig;
use crate::memory::{MemoryModel, ReaderUnit, WriterUnit};
use crate::report::{ChannelStats, SimOutcome, SimReport, UnitStats};
use crate::unit::StencilUnitSim;
use std::collections::BTreeMap;
use stencilflow_core::{AnalysisConfig, CoreError, DelayBufferAnalysis, InternalBufferAnalysis};
use stencilflow_core::{MultiDevicePlan, Result as CoreResult};
use stencilflow_program::{ProgramError, StencilDag, StencilProgram};
use stencilflow_reference::Grid;

/// Description of one channel of the built design (before instantiation).
#[derive(Debug, Clone)]
struct ChannelSpec {
    from: String,
    to: String,
    capacity: usize,
    latency: u64,
    words_per_cycle: f64,
}

/// A spatial design ready to be simulated on concrete input data.
#[derive(Debug)]
pub struct Simulator {
    program: StencilProgram,
    config: SimConfig,
    channel_specs: Vec<ChannelSpec>,
    /// `(from, to) -> channel index`
    channel_index: BTreeMap<(String, String), usize>,
    /// Stencils in topological order.
    stencil_order: Vec<String>,
}

impl Simulator {
    /// Build the single-device design for `program`, using the delay-buffer
    /// analysis to size every channel.
    ///
    /// # Errors
    ///
    /// Returns an error if the program DAG is invalid.
    pub fn build(
        program: &StencilProgram,
        analysis: &AnalysisConfig,
        config: &SimConfig,
    ) -> CoreResult<Self> {
        Self::build_inner(program, analysis, config, None)
    }

    /// Build a design partitioned across multiple devices: channels crossing
    /// device boundaries become network channels with the configured latency
    /// and bandwidth (the SMI substitute).
    ///
    /// # Errors
    ///
    /// Returns an error if the program DAG is invalid or the plan does not
    /// cover all stencils.
    pub fn build_multi_device(
        program: &StencilProgram,
        analysis: &AnalysisConfig,
        plan: &MultiDevicePlan,
        config: &SimConfig,
    ) -> CoreResult<Self> {
        Self::build_inner(program, analysis, config, Some(plan))
    }

    fn build_inner(
        program: &StencilProgram,
        analysis: &AnalysisConfig,
        config: &SimConfig,
        plan: Option<&MultiDevicePlan>,
    ) -> CoreResult<Self> {
        let internal = InternalBufferAnalysis::compute(program, analysis)?;
        let delay = DelayBufferAnalysis::compute(program, &internal, analysis)?;
        let dag = program.dag()?;

        // Device assignment for network-channel classification.
        let mut device_of: BTreeMap<String, usize> = BTreeMap::new();
        if let Some(plan) = plan {
            for partition in &plan.devices {
                for stencil in &partition.stencils {
                    device_of.insert(stencil.clone(), partition.index);
                }
            }
        }

        let mut channel_specs = Vec::new();
        let mut channel_index = BTreeMap::new();
        for channel in delay.channels() {
            let capacity = config
                .channel_depth_override
                .unwrap_or(channel.depth_words.max(1) + config.extra_channel_slack)
                as usize;
            let crosses_devices = match (device_of.get(&channel.from), device_of.get(&channel.to)) {
                (Some(a), Some(b)) => a != b,
                _ => false,
            };
            let (latency, words_per_cycle) = if crosses_devices {
                (
                    config.network.latency_cycles,
                    config.network.words_per_cycle,
                )
            } else {
                (0, f64::INFINITY)
            };
            let index = channel_specs.len();
            channel_specs.push(ChannelSpec {
                from: channel.from.clone(),
                to: channel.to.clone(),
                capacity: capacity.max(1) + if crosses_devices { latency as usize } else { 0 },
                latency,
                words_per_cycle,
            });
            channel_index.insert((channel.from.clone(), channel.to.clone()), index);
        }

        let _ = &dag; // DAG used only for validation side effects today.
        Ok(Simulator {
            program: program.clone(),
            config: config.clone(),
            channel_specs,
            channel_index,
            stencil_order: program.topological_stencils()?,
        })
    }

    /// Number of channels in the built design.
    pub fn channel_count(&self) -> usize {
        self.channel_specs.len()
    }

    /// Run the design on concrete input grids.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Program`] if an input grid is missing or has the
    /// wrong shape.
    pub fn run(&self, inputs: &BTreeMap<String, Grid>) -> CoreResult<SimReport> {
        let program = &self.program;
        let space = program.space();
        let total_cells = space.num_cells();

        // Validate inputs.
        for (name, decl) in program.inputs() {
            let grid = inputs.get(name).ok_or_else(|| {
                CoreError::Program(ProgramError::Invalid {
                    message: format!("missing input grid `{name}`"),
                })
            })?;
            if grid.rank() != decl.rank() {
                return Err(CoreError::Program(ProgramError::Invalid {
                    message: format!(
                        "input `{name}` has rank {}, expected {}",
                        grid.rank(),
                        decl.rank()
                    ),
                }));
            }
        }

        // Instantiate channels.
        let mut channels: Vec<Fifo> = self
            .channel_specs
            .iter()
            .map(|spec| {
                let mut fifo = Fifo::new(&format!("{}->{}", spec.from, spec.to), spec.capacity)
                    .with_latency(spec.latency);
                if spec.words_per_cycle.is_finite() {
                    fifo = fifo.with_bandwidth(spec.words_per_cycle);
                }
                fifo
            })
            .collect();

        // Readers: one per program input.
        let full_rank = space.rank();
        let mut readers: Vec<ReaderUnit> = Vec::new();
        for (name, decl) in program.inputs() {
            let outs: Vec<usize> = self
                .channel_index
                .iter()
                .filter(|((from, _), _)| from == name)
                .map(|(_, &idx)| idx)
                .collect();
            if outs.is_empty() {
                continue; // unused input
            }
            readers.push(ReaderUnit::new(
                name,
                &inputs[name],
                space,
                outs,
                decl.rank() == full_rank,
            ));
        }

        // Stencil units.
        let mut units: Vec<StencilUnitSim> = Vec::new();
        for name in &self.stencil_order {
            let stencil = program.stencil(name).expect("topological order is valid");
            let mut input_channels = BTreeMap::new();
            for (field, _) in stencil.accesses.iter() {
                let idx = self
                    .channel_index
                    .get(&(field.to_string(), name.clone()))
                    .copied()
                    .ok_or_else(|| CoreError::Internal {
                        message: format!("no channel from `{field}` to `{name}`"),
                    })?;
                input_channels.insert(field.to_string(), idx);
            }
            let outs: Vec<usize> = self
                .channel_index
                .iter()
                .filter(|((from, _), _)| from == name)
                .map(|(_, &idx)| idx)
                .collect();
            units.push(StencilUnitSim::new(program, stencil, &input_channels, outs));
        }

        // Writers: one per program output.
        let mut writers: Vec<WriterUnit> = Vec::new();
        for output in program.outputs() {
            let sink = StencilDag::output_node_name(output);
            let idx = self
                .channel_index
                .get(&(output.clone(), sink))
                .copied()
                .ok_or_else(|| CoreError::Internal {
                    message: format!("no channel from `{output}` to its output memory"),
                })?;
            writers.push(WriterUnit::new(output, idx, total_cells));
        }

        // Main loop.
        let mut memory = MemoryModel::new(self.config.memory_words_per_cycle);
        let mut cycles: u64 = 0;
        let mut idle_cycles: u64 = 0;
        let outcome = loop {
            if writers.iter().all(WriterUnit::done) {
                break SimOutcome::Completed;
            }
            if cycles >= self.config.max_cycles {
                break SimOutcome::MaxCyclesExceeded;
            }
            memory.begin_cycle();
            for channel in channels.iter_mut() {
                channel.begin_cycle();
            }
            let mut progress = false;
            for reader in readers.iter_mut() {
                progress |= reader.step(cycles, &mut channels, &mut memory);
            }
            for unit in units.iter_mut() {
                progress |= unit.step(cycles, &mut channels);
            }
            for writer in writers.iter_mut() {
                progress |= writer.step(cycles, &mut channels, &mut memory);
            }
            if progress {
                idle_cycles = 0;
            } else {
                idle_cycles += 1;
                if idle_cycles >= self.config.deadlock_window {
                    break SimOutcome::Deadlocked;
                }
            }
            cycles += 1;
        };

        // Collect outputs.
        let dim_refs: Vec<&str> = space.dims.iter().map(String::as_str).collect();
        let mut outputs = BTreeMap::new();
        if outcome == SimOutcome::Completed {
            for writer in &writers {
                let dtype = program
                    .field_type(&writer.field)
                    .unwrap_or(stencilflow_expr::DataType::Float32);
                let mut grid = Grid::zeros(&dim_refs, &space.shape, dtype);
                for (flat, index) in space.indices().enumerate() {
                    grid.set(&index, writer.values[flat]);
                }
                outputs.insert(writer.field.clone(), grid);
            }
        }

        // Statistics.
        let mut unit_stats = Vec::new();
        for reader in &readers {
            unit_stats.push(UnitStats {
                name: format!("read:{}", reader.field),
                produced: reader.produced,
                input_stalls: 0,
                output_stalls: reader.stall_cycles,
            });
        }
        for unit in &units {
            unit_stats.push(UnitStats {
                name: unit.name.clone(),
                produced: unit.produced,
                input_stalls: unit.input_stalls,
                output_stalls: unit.output_stalls,
            });
        }
        for writer in &writers {
            unit_stats.push(UnitStats {
                name: format!("write:{}", writer.field),
                produced: writer.values.len(),
                input_stalls: writer.stall_cycles,
                output_stalls: 0,
            });
        }
        let channel_stats = channels
            .iter()
            .map(|c| ChannelStats {
                name: c.name().to_string(),
                capacity: c.capacity(),
                high_watermark: c.high_watermark(),
                words: c.pushed_total(),
            })
            .collect();

        Ok(SimReport {
            outcome,
            cycles,
            outputs,
            unit_stats,
            channel_stats,
            memory_words: memory.total_words(),
            memory_stalls: memory.stalled_requests(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_core::PartitionConfig;
    use stencilflow_reference::{generate_inputs, ReferenceExecutor};
    use stencilflow_workloads::{chain_program, ChainSpec};

    #[test]
    fn chain_streams_at_full_rate() {
        let program = chain_program(&ChainSpec::new(4, 8).with_shape(&[32, 8, 8]));
        let inputs = generate_inputs(&program, 1);
        let sim = Simulator::build(
            &program,
            &AnalysisConfig::paper_defaults(),
            &SimConfig::default(),
        )
        .unwrap();
        let report = sim.run(&inputs).unwrap();
        assert!(report.completed());
        let n = program.space().num_cells();
        // A linear chain is fully pipelined: close to one cell per cycle.
        assert!(
            report.cells_per_cycle(n) > 0.8,
            "rate = {}",
            report.cells_per_cycle(n)
        );
        // Functional check against the reference executor.
        let reference = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let max_err = reference
            .compare_field("f4", report.output("f4").unwrap())
            .unwrap();
        assert!(max_err < 1e-4);
    }

    #[test]
    fn multi_device_chain_matches_single_device_functionally() {
        let program = chain_program(&ChainSpec::new(6, 8).with_shape(&[16, 8, 8]));
        let inputs = generate_inputs(&program, 2);
        let single = Simulator::build(
            &program,
            &AnalysisConfig::paper_defaults(),
            &SimConfig::default(),
        )
        .unwrap()
        .run(&inputs)
        .unwrap();
        let plan = MultiDevicePlan::partition(&program, &PartitionConfig::devices(2)).unwrap();
        let multi = Simulator::build_multi_device(
            &program,
            &AnalysisConfig::paper_defaults(),
            &plan,
            &SimConfig::default(),
        )
        .unwrap()
        .run(&inputs)
        .unwrap();
        assert!(single.completed());
        assert!(multi.completed());
        let a = single.output("f6").unwrap();
        let b = multi.output("f6").unwrap();
        assert!(a.approx_eq(b, 1e-9));
        // The network latency shows up as extra cycles, but the design still
        // streams (it is not orders of magnitude slower).
        assert!(multi.cycles >= single.cycles);
        assert!(multi.cycles < single.cycles * 3);
    }

    #[test]
    fn channel_count_matches_dag_edges() {
        let program = chain_program(&ChainSpec::new(3, 8).with_shape(&[16, 8, 8]));
        let sim = Simulator::build(
            &program,
            &AnalysisConfig::paper_defaults(),
            &SimConfig::default(),
        )
        .unwrap();
        // f0->f1, f1->f2, f2->f3, f3->out.
        assert_eq!(sim.channel_count(), 4);
    }
}
