//! Hosting Bloom modules as dataflow components.
//!
//! A [`BloomComponent`] maps a module's input interfaces to component input
//! ports and output interfaces to output ports (both in declaration order).
//! Every incoming data message triggers one timestep with that tuple; the
//! timestep's outputs are emitted on the corresponding ports.
//!
//! Seal punctuations are forwarded on every output port: the module itself
//! is punctuation-agnostic (seal handling — buffering and voting — is the
//! job of the synthesized coordination wrappers in `blazes-apps`).

use crate::ast::Module;
use crate::error::Result;
use crate::interp::ModuleInstance;
use blazes_dataflow::component::{Component, Context};
use blazes_dataflow::message::Message;
use std::collections::BTreeMap;

/// A dataflow component executing one Bloom module instance.
pub struct BloomComponent {
    instance: ModuleInstance,
    inputs: Vec<String>,
    outputs: Vec<String>,
    name: String,
}

impl BloomComponent {
    /// Wrap a module with the default (semi-naive) engine.
    pub fn new(module: Module) -> Result<Self> {
        let inputs = module.inputs().iter().map(|s| s.to_string()).collect();
        let outputs = module.outputs().iter().map(|s| s.to_string()).collect();
        let name = module.name.clone();
        Ok(BloomComponent {
            instance: ModuleInstance::new(module)?,
            inputs,
            outputs,
            name,
        })
    }

    /// The wrapped instance (e.g. to inspect tables in tests).
    #[must_use]
    pub fn instance(&self) -> &ModuleInstance {
        &self.instance
    }
}

impl Component for BloomComponent {
    fn on_message(&mut self, port: usize, msg: Message, ctx: &mut Context) {
        match msg {
            Message::Data(tuple) => {
                let Some(iface) = self.inputs.get(port) else {
                    return;
                };
                let mut inputs = BTreeMap::new();
                inputs.insert(iface.clone(), vec![tuple]);
                match self.instance.tick(inputs) {
                    Ok(out) => {
                        for (oi, iface) in self.outputs.iter().enumerate() {
                            for t in out.on(iface) {
                                ctx.emit(oi, Message::Data(t.clone()));
                            }
                        }
                    }
                    Err(e) => {
                        // Deterministic components must not crash the sim;
                        // surface the error as a poisoned-looking no-op.
                        debug_assert!(false, "bloom eval error in {}: {e}", self.name);
                    }
                }
            }
            Message::Seal(key) => {
                for oi in 0..self.outputs.len() {
                    ctx.emit(oi, Message::Seal(key.clone()));
                }
            }
            Message::Eos => {}
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;
    use blazes_dataflow::backend::{ExecutorBuilder, PortId, Topology};
    use blazes_dataflow::channel::ChannelConfig;
    use blazes_dataflow::sim::Simulator;
    use blazes_dataflow::sinks::CollectorSink;
    use blazes_dataflow::value::{Tuple, Value};

    fn counter_module() -> Module {
        parse_module(
            r#"
module Counter {
  input click(id)
  output counts(id, n)
  table log(id)
  log <= click
  counts <~ log group by (log.id) agg count(*) as n
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn port_mapping() {
        let c = BloomComponent::new(counter_module()).unwrap();
        // Ports follow declaration order: port i is interface i.
        assert_eq!(c.inputs, ["click"]);
        assert_eq!(c.outputs, ["counts"]);
    }

    #[test]
    fn runs_in_simulation() {
        let mut b = Topology::new();
        let comp = BloomComponent::new(counter_module()).unwrap();
        let bloom = b.add_instance(Box::new(comp));
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(bloom, PortId(0), s, PortId(0), ChannelConfig::instant());
        for id in ["a", "b", "a"] {
            b.inject(
                0,
                bloom,
                PortId(0),
                Message::Data(Tuple(vec![Value::str(id)])),
            );
        }
        Simulator::new(b, 1).run();
        // Each tick emits the current counts; the final count for 'a' is 1
        // (set semantics collapse duplicate ('a',) tuples in the log).
        let last = sink.messages();
        assert!(!last.is_empty());
        assert!(last
            .iter()
            .filter_map(Message::as_data)
            .any(|t| t.get(0) == Some(&Value::str("a"))));
    }

    #[test]
    fn seals_are_forwarded() {
        let mut b = Topology::new();
        let comp = BloomComponent::new(counter_module()).unwrap();
        let bloom = b.add_instance(Box::new(comp));
        let sink = CollectorSink::new();
        let s = b.add_instance(Box::new(sink.clone()));
        b.connect_with(bloom, PortId(0), s, PortId(0), ChannelConfig::instant());
        b.inject(
            0,
            bloom,
            PortId(0),
            Message::Seal(blazes_dataflow::message::SealKey::new([("campaign", 1i64)])),
        );
        Simulator::new(b, 0).run();
        assert!(matches!(sink.messages()[0], Message::Seal(_)));
    }
}
