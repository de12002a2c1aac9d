//! The cloud instance-type catalog.
//!
//! Specs and prices mirror the 2013-era Amazon EC2 on-demand fleet the
//! paper provisioned from. Exact numbers matter less than the *structure*
//! they induce: `c1.*` buys cheap flops but little memory, `m2.*` buys
//! memory at a premium, `m1.*` sits in between, and the `cc*` cluster-
//! compute types add fast networking at a high hourly rate. That structure
//! is what makes the deployment optimizer's choice non-trivial.

use serde::{Deserialize, Serialize};

/// Performance and price descriptor of one instance type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceType {
    /// EC2-style name, e.g. `"c1.xlarge"`.
    pub name: &'static str,
    /// Physical cores (slots beyond this oversubscribe the CPU).
    pub cores: u32,
    /// Effective dense-GEMM throughput per core, in GFLOP/s.
    pub gflops_per_core: f64,
    /// Memory in MB, shared by all concurrently running task slots.
    pub memory_mb: u64,
    /// Aggregate local-disk read bandwidth in MB/s, shared by slots.
    pub disk_read_mbs: f64,
    /// Aggregate local-disk write bandwidth in MB/s, shared by slots.
    pub disk_write_mbs: f64,
    /// Network bandwidth in MB/s, shared by slots (remote DFS traffic).
    pub net_mbs: f64,
    /// On-demand price in dollars per instance-hour.
    pub price_per_hour: f64,
}

impl InstanceType {
    /// Dollars per GFLOP/s-hour — a crude "value" metric used in tests to
    /// assert the catalog's structure (c1 cheapest compute, m2 priciest).
    #[cfg(test)]
    pub(crate) fn dollars_per_gflops(&self) -> f64 {
        self.price_per_hour / (self.gflops_per_core * self.cores as f64)
    }
}

/// The full catalog, ordered roughly by price.
pub fn catalog() -> &'static [InstanceType] {
    &CATALOG
}

/// Looks up a type by name.
pub fn by_name(name: &str) -> Option<InstanceType> {
    CATALOG.iter().copied().find(|t| t.name == name)
}

static CATALOG: [InstanceType; 10] = [
    InstanceType {
        name: "m1.small",
        cores: 1,
        gflops_per_core: 1.2,
        memory_mb: 1_700,
        disk_read_mbs: 60.0,
        disk_write_mbs: 50.0,
        net_mbs: 40.0,
        price_per_hour: 0.060,
    },
    InstanceType {
        name: "m1.medium",
        cores: 1,
        gflops_per_core: 2.4,
        memory_mb: 3_750,
        disk_read_mbs: 70.0,
        disk_write_mbs: 60.0,
        net_mbs: 60.0,
        price_per_hour: 0.120,
    },
    InstanceType {
        name: "c1.medium",
        cores: 2,
        gflops_per_core: 2.8,
        memory_mb: 1_700,
        disk_read_mbs: 70.0,
        disk_write_mbs: 60.0,
        net_mbs: 60.0,
        price_per_hour: 0.145,
    },
    InstanceType {
        name: "m1.large",
        cores: 2,
        gflops_per_core: 2.4,
        memory_mb: 7_500,
        disk_read_mbs: 90.0,
        disk_write_mbs: 75.0,
        net_mbs: 80.0,
        price_per_hour: 0.240,
    },
    InstanceType {
        name: "m2.xlarge",
        cores: 2,
        gflops_per_core: 3.0,
        memory_mb: 17_100,
        disk_read_mbs: 100.0,
        disk_write_mbs: 85.0,
        net_mbs: 80.0,
        price_per_hour: 0.410,
    },
    InstanceType {
        name: "m1.xlarge",
        cores: 4,
        gflops_per_core: 2.4,
        memory_mb: 15_000,
        disk_read_mbs: 120.0,
        disk_write_mbs: 100.0,
        net_mbs: 100.0,
        price_per_hour: 0.480,
    },
    InstanceType {
        name: "c1.xlarge",
        cores: 8,
        gflops_per_core: 2.8,
        memory_mb: 7_000,
        disk_read_mbs: 120.0,
        disk_write_mbs: 100.0,
        net_mbs: 100.0,
        price_per_hour: 0.580,
    },
    InstanceType {
        name: "m2.2xlarge",
        cores: 4,
        gflops_per_core: 3.0,
        memory_mb: 34_200,
        disk_read_mbs: 130.0,
        disk_write_mbs: 110.0,
        net_mbs: 100.0,
        price_per_hour: 0.820,
    },
    InstanceType {
        name: "cc1.4xlarge",
        cores: 16,
        gflops_per_core: 3.2,
        memory_mb: 23_000,
        disk_read_mbs: 200.0,
        disk_write_mbs: 160.0,
        net_mbs: 1_200.0,
        price_per_hour: 1.300,
    },
    InstanceType {
        name: "cc2.8xlarge",
        cores: 32,
        gflops_per_core: 3.4,
        memory_mb: 60_500,
        disk_read_mbs: 250.0,
        disk_write_mbs: 200.0,
        net_mbs: 1_200.0,
        price_per_hour: 2.400,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let t = by_name("c1.xlarge").unwrap();
        assert_eq!(t.cores, 8);
        assert!(by_name("p5.everything").is_none());
    }

    #[test]
    fn catalog_has_distinct_names() {
        let mut names: Vec<_> = catalog().iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog().len());
    }

    #[test]
    fn structure_c1_cheapest_compute() {
        let c1 = by_name("c1.xlarge").unwrap();
        let m1 = by_name("m1.xlarge").unwrap();
        let m2 = by_name("m2.2xlarge").unwrap();
        assert!(c1.dollars_per_gflops() < m1.dollars_per_gflops());
        assert!(m1.dollars_per_gflops() < m2.dollars_per_gflops());
    }

    #[test]
    fn structure_m2_most_memory_per_core() {
        let m2 = by_name("m2.2xlarge").unwrap();
        let c1 = by_name("c1.xlarge").unwrap();
        assert!(m2.memory_mb / m2.cores as u64 > 8 * (c1.memory_mb / c1.cores as u64));
    }

    #[test]
    fn all_specs_positive() {
        for t in catalog() {
            assert!(t.cores > 0, "{}", t.name);
            assert!(t.gflops_per_core > 0.0);
            assert!(t.memory_mb > 0);
            assert!(t.disk_read_mbs > 0.0 && t.disk_write_mbs > 0.0 && t.net_mbs > 0.0);
            assert!(t.price_per_hour > 0.0);
        }
    }
}
