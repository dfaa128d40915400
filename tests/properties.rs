//! Property-based tests (proptest) of the core invariants: wire
//! protocol round-trips, timestamp unwrapping, EEPROM records,
//! statistics/averaging identities, Pareto-front correctness, and the
//! error-budget formula.

use proptest::prelude::*;

use powersensor3::analysis::{
    block_average, pareto_front_indices, ParetoPoint, SampleStats, Trace,
};
use powersensor3::firmware::protocol::{
    Command, CommandParser, Packet, StreamDecoder, TimestampUnwrapper,
};
use powersensor3::firmware::SensorConfig;
use powersensor3::sensors::budget::power_error;
use powersensor3::sim::{FaultEvent, FaultInjector, FaultKind, SimPlan};
use powersensor3::transport::{Transport, TransportError, VirtualSerial};
use powersensor3::units::{Amps, SimTime, Volts, Watts};

proptest! {
    #[test]
    fn packet_roundtrip(sensor in 0u8..=7, value in 0u16..1024, marker: bool) {
        prop_assume!(!(marker && sensor == 7));
        let p = Packet::Sample { sensor, marker, value };
        prop_assert_eq!(Packet::decode(p.encode()).unwrap(), p);
    }

    #[test]
    fn timestamp_roundtrip(micros in 0u16..1024) {
        let p = Packet::Timestamp { micros };
        prop_assert_eq!(Packet::decode(p.encode()).unwrap(), p);
    }

    #[test]
    fn decoder_recovers_after_arbitrary_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
        value in 0u16..1024,
    ) {
        // After any garbage prefix, a valid packet pair must decode —
        // possibly after one sacrificial packet while framing recovers.
        let mut bytes = garbage;
        let a = Packet::Sample { sensor: 1, marker: false, value };
        let b = Packet::Sample { sensor: 2, marker: false, value };
        bytes.extend_from_slice(&a.encode());
        bytes.extend_from_slice(&b.encode());
        let mut dec = StreamDecoder::new();
        let packets = dec.push_slice(&bytes);
        prop_assert!(packets.contains(&b), "at least the second packet survives");
    }

    #[test]
    fn decoder_identical_regardless_of_chunking(
        packets in proptest::collection::vec((0u8..=6, 0u16..1024), 1..32),
        split in 1usize..16,
    ) {
        let mut bytes = Vec::new();
        for &(sensor, value) in &packets {
            bytes.extend_from_slice(&Packet::Sample { sensor, marker: false, value }.encode());
        }
        let mut whole = StreamDecoder::new();
        let all_at_once = whole.push_slice(&bytes);
        let mut chunked = StreamDecoder::new();
        let mut chunked_out = Vec::new();
        for chunk in bytes.chunks(split) {
            chunked_out.extend(chunked.push_slice(chunk));
        }
        prop_assert_eq!(all_at_once, chunked_out);
    }

    #[test]
    fn unwrapper_is_monotonic_under_regular_frames(
        start in 0u64..100_000,
        steps in proptest::collection::vec(1u64..900, 1..200),
    ) {
        let mut u = TimestampUnwrapper::new();
        let mut t = start;
        let mut last = 0u64;
        for (i, step) in steps.iter().enumerate() {
            let raw = (t % 1024) as u16;
            let abs = u.unwrap(raw);
            if i > 0 {
                prop_assert!(abs >= last, "time went backwards: {abs} < {last}");
            }
            last = abs;
            t += step; // any inter-frame gap below the 1024 µs wrap
        }
    }

    #[test]
    fn sensor_config_roundtrip(
        name in "[a-zA-Z0-9 _-]{0,16}",
        vref in 0.1f32..10.0,
        gain in 0.001f32..100.0,
        enabled: bool,
    ) {
        let cfg = SensorConfig::new(&name, vref, gain, enabled);
        let round = SensorConfig::from_wire(&cfg.to_wire()).unwrap();
        prop_assert_eq!(round, cfg);
    }

    #[test]
    fn command_stream_roundtrip(
        cmds in proptest::collection::vec(0usize..6, 1..20),
    ) {
        let palette = [
            Command::StartStreaming,
            Command::StopStreaming,
            Command::Marker,
            Command::Version,
            Command::ReadConfig,
            Command::WriteConfig {
                sensor: 3,
                config: SensorConfig::new("x", 3.3, 0.12, true),
            },
        ];
        let expect: Vec<Command> = cmds.iter().map(|&i| palette[i].clone()).collect();
        let mut bytes = Vec::new();
        for c in &expect {
            bytes.extend_from_slice(&c.encode());
        }
        let mut parser = CommandParser::new();
        prop_assert_eq!(parser.push_slice(&bytes), expect);
    }

    #[test]
    fn block_average_preserves_mean(
        samples in proptest::collection::vec(-1e6f64..1e6, 1..500),
        block in 1usize..20,
    ) {
        prop_assume!(samples.len() >= block);
        let trimmed = &samples[..(samples.len() / block) * block];
        let avg = block_average(trimmed, block);
        let mean_raw = trimmed.iter().sum::<f64>() / trimmed.len() as f64;
        let mean_avg = avg.iter().sum::<f64>() / avg.len() as f64;
        prop_assert!((mean_raw - mean_avg).abs() < 1e-6 * (1.0 + mean_raw.abs()));
    }

    #[test]
    fn block_average_never_exceeds_extremes(
        samples in proptest::collection::vec(-1e3f64..1e3, 4..200),
        block in 1usize..8,
    ) {
        prop_assume!(samples.len() >= block);
        let stats = SampleStats::from_samples(samples.iter().copied()).unwrap();
        for v in block_average(&samples, block) {
            prop_assert!(v >= stats.min - 1e-9 && v <= stats.max + 1e-9);
        }
    }

    #[test]
    fn stats_bounds_are_consistent(
        samples in proptest::collection::vec(-1e4f64..1e4, 1..300),
    ) {
        let s = SampleStats::from_samples(samples.iter().copied()).unwrap();
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std >= 0.0);
        prop_assert!(s.peak_to_peak() >= 0.0);
        prop_assert!(s.rms + 1e-9 >= s.mean.abs());
        prop_assert_eq!(s.count, samples.len());
    }

    #[test]
    fn pareto_front_is_exactly_the_nondominated_set(
        points in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..60),
    ) {
        let pts: Vec<ParetoPoint> = points.iter().map(|&(x, y)| ParetoPoint::new(x, y)).collect();
        let front = pareto_front_indices(&pts);
        for (i, p) in pts.iter().enumerate() {
            let dominated = pts
                .iter()
                .enumerate()
                .any(|(j, q)| j != i && q.dominates(p));
            prop_assert_eq!(
                front.contains(&i),
                !dominated,
                "index {} misclassified", i
            );
        }
    }

    #[test]
    fn power_error_formula_is_monotonic(
        u in 0.1f64..50.0,
        i in 0.1f64..50.0,
        eu in 0.0f64..1.0,
        ei in 0.0f64..1.0,
        bump in 0.001f64..1.0,
    ) {
        let base = power_error(Volts::new(u), Amps::new(i), Volts::new(eu), Amps::new(ei));
        let worse = power_error(
            Volts::new(u),
            Amps::new(i),
            Volts::new(eu + bump),
            Amps::new(ei + bump),
        );
        prop_assert!(worse >= base);
    }

    #[test]
    fn decoder_survives_faulty_transport_and_resyncs(
        frames in proptest::collection::vec((0u16..1024, 0u16..1024), 1..80),
        faults in proptest::collection::vec((0u64..480, 0u8..16), 0..16),
        chunk in 1usize..64,
        tail in 0u16..1024,
    ) {
        // A frame stream (timestamp + two samples each) crosses a
        // lossy, bit-flipping link and is read in arbitrary partial
        // chunks. The decoder must never panic, never invent more
        // packets than the byte count allows, and resynchronise once
        // clean bytes resume. A fault is a dropped byte or one flipped
        // bit (kinds 0..=7 flip that bit, 8..16 drop).
        let (host, device) = VirtualSerial::pair();
        let plan = SimPlan::from_events(
            faults
                .iter()
                .map(|&(offset, kind)| FaultEvent {
                    offset,
                    kind: if kind < 8 { FaultKind::BitFlip(kind) } else { FaultKind::Drop },
                })
                .collect(),
        );
        let faulty = FaultInjector::new(host, &plan);
        let mut bytes = Vec::new();
        for (i, &(v1, v2)) in frames.iter().enumerate() {
            let micros = (i as u64 * 50 % 1024) as u16;
            bytes.extend_from_slice(&Packet::Timestamp { micros }.encode());
            bytes.extend_from_slice(&Packet::Sample { sensor: 0, marker: false, value: v1 }.encode());
            bytes.extend_from_slice(&Packet::Sample { sensor: 1, marker: false, value: v2 }.encode());
        }
        device.write_all(&bytes).unwrap();
        drop(device);

        let mut dec = StreamDecoder::new();
        let mut unwrapper = TimestampUnwrapper::new();
        let mut decoded = 0usize;
        let mut buf = vec![0u8; chunk];
        loop {
            match faulty.read(&mut buf, None) {
                Ok(n) => {
                    for p in dec.push_slice(&buf[..n]) {
                        decoded += 1;
                        if let Packet::Timestamp { micros } = p {
                            // Feeding corrupted timestamps must not panic.
                            let _ = unwrapper.unwrap(micros);
                        }
                    }
                }
                Err(TransportError::Disconnected) => break,
                Err(e) => return Err(TestCaseError::fail(format!("transport error: {e}"))),
            }
        }
        // Faults only remove or mangle bytes, never add: the decoder
        // can at most see the packets that were sent.
        prop_assert!(decoded <= frames.len() * 3);
        prop_assert_eq!(faulty.bytes_seen(), bytes.len() as u64);
        let due = plan.events().iter().filter(|e| e.offset < faulty.bytes_seen()).count();
        prop_assert_eq!(faulty.faults_applied(), due as u64);
        if plan.is_empty() {
            prop_assert_eq!(decoded, frames.len() * 3);
        }

        // Resync: however mangled the stream left the decoder, a clean
        // packet pair pushed afterwards decodes — at most the first
        // packet is sacrificed to framing recovery.
        let a = Packet::Sample { sensor: 2, marker: false, value: tail };
        let b = Packet::Sample { sensor: 3, marker: false, value: 1023 - tail };
        let mut clean = Vec::new();
        clean.extend_from_slice(&a.encode());
        clean.extend_from_slice(&b.encode());
        let recovered = dec.push_slice(&clean);
        prop_assert!(recovered.contains(&b), "decoder failed to resync: {recovered:?}");
    }

    #[test]
    fn trace_energy_bounded_by_extremes(
        powers in proptest::collection::vec(0.0f64..500.0, 2..200),
    ) {
        let mut trace = Trace::new();
        for (k, p) in powers.iter().enumerate() {
            trace.push(SimTime::from_micros(k as u64 * 50), Watts::new(*p));
        }
        let span_s = trace.span().as_secs_f64();
        let stats = SampleStats::from_samples(powers.iter().copied()).unwrap();
        let e = trace.energy().value();
        prop_assert!(e >= stats.min * span_s - 1e-9);
        prop_assert!(e <= stats.max * span_s + 1e-9);
    }
}
