use experiments::{ClusterConfig, ClusterSim};
use press::PressVersion;
use simnet::SimTime;

fn main() {
    for v in PressVersion::ALL {
        let mut sim = ClusterSim::new(ClusterConfig::paper_defaults(v), 42);
        sim.run_until(SimTime::from_secs(40));
        let t = sim.mean_throughput(10.0, 40.0);
        let r = sim.report();
        println!(
            "{:<14} measured {:7.0} paper {:6.0} ratio {:.3} avail {:.4}",
            v.name(),
            t,
            v.paper_throughput(),
            t / v.paper_throughput(),
            r.availability.availability()
        );
    }
}
