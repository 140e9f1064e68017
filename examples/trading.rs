//! A trading-floor workload in the style of the Swiss Exchange Trading
//! System the paper cites (§1): one group per data *subject*, many
//! overlapping subjects, far more groups than the infrastructure could
//! afford as stand-alone virtually-synchronous groups.
//!
//! Eight gateway processes subscribe to 24 subject groups; subjects fall
//! into two market segments with disjoint subscriber sets. The light-weight
//! group service maps all 24 subjects onto ~2 heavy-weight groups — and the
//! example shows price updates flowing, the resource-sharing footprint, and
//! a mid-session partition with seamless recovery.
//!
//! Run with: `cargo run --example trading`

use plwg::prelude::*;

/// A price tick for a subject, carried as a fixed 16-byte frame
/// (`subject` then `price_cents`, both little endian).
#[derive(Debug, Clone, Copy)]
struct Tick {
    subject: u64,
    price_cents: u64,
}

impl Tick {
    fn to_frame(self) -> Frame {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&self.subject.to_le_bytes());
        buf.extend_from_slice(&self.price_cents.to_le_bytes());
        Frame::from_vec(buf)
    }

    fn from_frame(frame: &Frame) -> Option<Tick> {
        let bytes: &[u8; 16] = frame.bytes().try_into().ok()?;
        let (subject, price) = bytes.split_at(8);
        Some(Tick {
            subject: u64::from_le_bytes(subject.try_into().expect("8 bytes")),
            price_cents: u64::from_le_bytes(price.try_into().expect("8 bytes")),
        })
    }
}

fn main() {
    let mut world = World::new(WorldConfig::default());
    let s0 = world.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![NodeId(1)],
        NamingConfig::default(),
    )));
    let s1 = world.add_node(Box::new(NameServer::new(
        NodeId(1),
        vec![NodeId(0)],
        NamingConfig::default(),
    )));
    let gateways: Vec<NodeId> = (2..10)
        .map(|i| {
            world.add_node(Box::new(
                LwgNode::builder(NodeId(i))
                    .servers(vec![s0, s1])
                    .config(LwgConfig::default())
                    .build()
                    .expect("valid LWG config"),
            ))
        })
        .collect();

    // Segment "equities": subjects 1..=12, subscribed by gateways 0..4.
    // Segment "bonds":    subjects 13..=24, subscribed by gateways 4..8.
    let subjects_eq: Vec<u64> = (1..=12).collect();
    let subjects_bd: Vec<u64> = (13..=24).collect();
    for (idx, &subject) in subjects_eq.iter().chain(subjects_bd.iter()).enumerate() {
        let subs: &[NodeId] = if subject <= 12 {
            &gateways[..4]
        } else {
            &gateways[4..]
        };
        for (i, &g) in subs.iter().enumerate() {
            world.invoke_at(
                SimTime::from_secs(0)
                    + SimDuration::from_millis(120 * idx as u64)
                    + SimDuration::from_millis(400 * i as u64),
                g,
                move |app: &mut LwgNode, ctx| app.service().join(ctx, LwgId(subject)),
            );
        }
    }
    world.run_until(SimTime::from_secs(30));

    // How many heavy-weight groups back those 24 subject groups?
    let footprints: Vec<usize> = gateways
        .iter()
        .map(|&g| world.inspect(g, |a: &LwgNode| a.service_ref().hwgs().len()))
        .collect();
    println!("24 subject groups; HWGs per gateway: {footprints:?}");
    assert!(
        footprints.iter().all(|&f| f <= 2),
        "resource sharing: each gateway should ride at most 2 HWGs"
    );

    // Market data: the first subscriber of each subject publishes ticks.
    for &subject in subjects_eq.iter().chain(subjects_bd.iter()) {
        let publisher = if subject <= 12 {
            gateways[0]
        } else {
            gateways[4]
        };
        for k in 0..10u64 {
            world.invoke_at(
                SimTime::from_secs(31) + SimDuration::from_millis(20 * k + subject),
                publisher,
                move |app: &mut LwgNode, ctx| {
                    app.service().send(
                        ctx,
                        LwgId(subject),
                        Tick {
                            subject,
                            price_cents: 10_000 + subject * 100 + k,
                        }
                        .to_frame(),
                    )
                },
            );
        }
    }
    world.run_until(SimTime::from_secs(35));

    // Every subscriber saw every tick of its subjects, in order — and none
    // of the other segment's.
    for (gi, &g) in gateways.iter().enumerate() {
        let (count, foreign) = world.inspect(g, |a: &LwgNode| {
            let mut count = 0;
            let mut foreign = 0;
            for ev in a.events_ref().history() {
                let LwgEvent::Data { lwg, data, .. } = ev else {
                    continue;
                };
                let tick = Tick::from_frame(data).expect("tick payload");
                assert_eq!(tick.subject, lwg.0, "tick delivered to its subject");
                assert!(tick.price_cents >= 10_000, "prices are sane");
                let mine = if gi < 4 { lwg.0 <= 12 } else { lwg.0 > 12 };
                if mine {
                    count += 1;
                } else {
                    foreign += 1;
                }
            }
            (count, foreign)
        });
        assert_eq!(foreign, 0, "no cross-segment leakage");
        println!("gateway {g}: {count} ticks delivered");
    }

    // A backbone failure splits the equities floor mid-session…
    println!("\nt=36s PARTITION inside the equities segment");
    world.split_at(
        SimTime::from_secs(36),
        vec![
            vec![s0, gateways[0], gateways[1]],
            vec![
                s1,
                gateways[2],
                gateways[3],
                gateways[4],
                gateways[5],
                gateways[6],
                gateways[7],
            ],
        ],
    );
    world.run_until(SimTime::from_secs(50));
    let side_view = world.inspect(gateways[0], |a: &LwgNode| {
        a.current_view(LwgId(1)).cloned().expect("view")
    });
    println!("t=50s subject 1 on the small side: {side_view}");
    assert_eq!(side_view.len(), 2, "the cut-off pair keeps trading");

    println!("t=52s HEAL");
    world.heal_at(SimTime::from_secs(52));
    world.run_until(SimTime::from_secs(75));
    for &subject in &subjects_eq {
        let v = world.inspect(gateways[0], |a: &LwgNode| {
            a.current_view(LwgId(subject)).cloned().expect("view")
        });
        assert_eq!(v.len(), 4, "subject {subject} healed: {v}");
    }
    println!("t=75s all 12 equities subjects back to 4 subscribers — ok");
}
