//! The coordination protocols over a real byte boundary: seal votes and
//! sequencer ticks round-trip through the distributed backend's wire
//! codec, and the protocols behave identically on the decoded stream.

use blazes_coord::registry::ProducerRegistry;
use blazes_coord::seal::{SealManager, SealOutcome};
use blazes_coord::sequencer::Sequencer;
use blazes_dataflow::dist::wire::{encode, Frame, FrameDecoder};
use blazes_dataflow::message::{Message, SealKey};
use blazes_dataflow::prelude::*;

/// One seal-protocol event, as the ad-report consumer sees it.
#[derive(Debug, Clone, PartialEq)]
enum SealEvent {
    Data { campaign: i64, tuple: Tuple },
    Vote { campaign: i64, producer: usize },
}

impl SealEvent {
    /// Encode as the message the producers actually emit on the stream.
    fn to_message(&self) -> Message {
        match self {
            SealEvent::Data { campaign, tuple } => {
                let mut values = vec![Value::Int(*campaign)];
                values.extend(tuple.0.iter().cloned());
                Message::Data(Tuple(values))
            }
            SealEvent::Vote { campaign, producer } => Message::Seal(SealKey::new([
                ("campaign", Value::Int(*campaign)),
                ("producer", Value::Int(*producer as i64)),
            ])),
        }
    }

    /// Decode from a received message (the consumer-side parse).
    fn from_message(msg: &Message) -> SealEvent {
        match msg {
            Message::Data(t) => {
                let Some(Value::Int(campaign)) = t.0.first() else {
                    panic!("data tuple without campaign column: {t:?}");
                };
                SealEvent::Data {
                    campaign: *campaign,
                    tuple: Tuple(t.0[1..].to_vec()),
                }
            }
            Message::Seal(key) => {
                let campaign = key
                    .value_of("campaign")
                    .and_then(Value::as_int)
                    .expect("vote carries campaign");
                let producer = key
                    .value_of("producer")
                    .and_then(Value::as_int)
                    .expect("vote carries producer");
                SealEvent::Vote {
                    campaign,
                    producer: producer as usize,
                }
            }
            Message::Eos => panic!("unexpected EOS in seal stream"),
        }
    }

    /// Apply to a seal manager, returning the outcome (a late record
    /// handed back by `on_data` reads as `LateArrival`).
    fn apply(&self, mgr: &mut SealManager) -> SealOutcome {
        match self {
            SealEvent::Data { campaign, tuple } => {
                match mgr.on_data(Value::Int(*campaign), tuple.clone()) {
                    None => SealOutcome::Buffered,
                    Some(_) => SealOutcome::LateArrival,
                }
            }
            SealEvent::Vote { campaign, producer } => mgr.on_seal(Value::Int(*campaign), *producer),
        }
    }
}

fn seal_script() -> Vec<SealEvent> {
    vec![
        SealEvent::Data {
            campaign: 1,
            tuple: Tuple(vec![Value::str("ad-a"), Value::Int(10)]),
        },
        SealEvent::Data {
            campaign: 2,
            tuple: Tuple(vec![Value::str("ad-b"), Value::Int(20)]),
        },
        SealEvent::Vote {
            campaign: 1,
            producer: 0,
        },
        SealEvent::Data {
            campaign: 1,
            tuple: Tuple(vec![Value::str("ad-c"), Value::Int(30)]),
        },
        SealEvent::Vote {
            campaign: 1,
            producer: 1,
        },
        SealEvent::Vote {
            campaign: 2,
            producer: 1,
        },
        // Protocol violation after release — must survive the wire too.
        SealEvent::Data {
            campaign: 1,
            tuple: Tuple(vec![Value::str("late"), Value::Int(99)]),
        },
    ]
}

fn registry() -> ProducerRegistry {
    // Campaign 1 needs unanimity from two producers; campaign 2 is
    // independently sealed by producer 1.
    let mut reg = ProducerRegistry::new();
    reg.register(Value::Int(1), [0usize, 1]);
    reg.register(Value::Int(2), [1usize]);
    reg
}

/// The unanimous-vote seal protocol reaches identical outcomes whether
/// events are applied in-process or shipped through the dist wire codec
/// (framed, chunked, reassembled) first.
#[test]
fn seal_votes_release_identically_across_the_wire() {
    let script = seal_script();

    // Reference: apply the script directly.
    let mut direct = SealManager::new(registry());
    let direct_outcomes: Vec<SealOutcome> = script.iter().map(|e| e.apply(&mut direct)).collect();

    // Wire: encode every event as a Data frame with sequence numbers,
    // concatenate, deliver one byte at a time, decode, and re-apply.
    let mut bytes = Vec::new();
    for (seq, event) in script.iter().enumerate() {
        bytes.extend_from_slice(&encode(&Frame::Data {
            wire: 7,
            seq: seq as u64,
            msg: event.to_message(),
        }));
    }
    let mut dec = FrameDecoder::new();
    let mut received = Vec::new();
    for byte in &bytes {
        dec.push(&[*byte]);
        while let Some(frame) = dec.next_frame().expect("clean stream") {
            let Frame::Data { wire, seq, msg } = frame else {
                panic!("unexpected frame kind");
            };
            assert_eq!(wire, 7);
            assert_eq!(seq, received.len() as u64);
            received.push(SealEvent::from_message(&msg));
        }
    }
    assert_eq!(received, script, "events mutated in transit");

    let mut wired = SealManager::new(registry());
    let wired_outcomes: Vec<SealOutcome> = received.iter().map(|e| e.apply(&mut wired)).collect();

    assert_eq!(wired_outcomes, direct_outcomes);
    let releases = direct_outcomes
        .iter()
        .filter(|o| matches!(o, SealOutcome::Released(_)))
        .count();
    assert_eq!(releases, 2);
    // The late arrival was flagged on both sides.
    assert_eq!(direct_outcomes.last(), Some(&SealOutcome::LateArrival));
}

/// Sequencer ticks keep their total order through the wire codec, so
/// replicas on the far side of a byte boundary can still verify it.
#[test]
fn sequencer_ticks_keep_their_order_across_the_wire() {
    // Run a sequencer over jittered input in the simulator; each tuple
    // leads with its injection index.
    let mut b = Topology::new();
    let seq = b.add_instance(Box::new(Sequencer::new()));
    let sink = CollectorSink::new();
    let replica = b.add_instance(Box::new(sink.clone()));
    let ordered = b.add_channel(ChannelConfig::ordered(1_000));
    b.connect(seq, PortId(0), replica, PortId(0), ordered);
    for i in 0..50i64 {
        b.inject(i as u64 * 3, seq, PortId(0), Message::data([i, i * i]));
    }
    Simulator::new(b, 17).run();
    let ticks = sink.entries();
    assert_eq!(ticks.len(), 50);

    // Ship the replica's feed as one SinkResult frame (the collect path),
    // chunked mid-frame.
    let frame = Frame::SinkResult {
        sink: 0,
        entries: ticks.clone(),
    };
    let bytes = encode(&frame);
    let mut dec = FrameDecoder::new();
    let (a, rest) = bytes.split_at(bytes.len() / 2);
    dec.push(a);
    assert_eq!(dec.next_frame().expect("clean stream"), None);
    dec.push(rest);
    let Some(Frame::SinkResult { entries, .. }) = dec.next_frame().expect("clean stream") else {
        panic!("sink result did not round-trip");
    };
    assert_eq!(entries, ticks);

    // The indices decode to exactly 0..50 in order: a total order a
    // remote replica can verify.
    let indices: Vec<i64> = entries
        .iter()
        .map(|(_, msg)| {
            let Message::Data(t) = msg else {
                panic!("tick is not a data tuple");
            };
            t.0.first()
                .and_then(|v| v.as_int())
                .expect("tick leads with its injection index")
        })
        .collect();
    assert_eq!(indices, (0..50).collect::<Vec<i64>>());
}
