//! Hitless migration driver: execute a placement change against a live
//! cluster without losing a single learned flow.
//!
//! The driver sequences the `ClusterHandle` migration verbs into the
//! state machine documented in DESIGN.md:
//!
//! ```text
//! BUILD → PAUSE → FLUSH → SNAPSHOT → SWAP → RESYNC → RESTORE → REMAP → RESUME
//! ```
//!
//! * **BUILD** — compile the new placement into fresh `(Switch,
//!   Deployment)` members *before* touching traffic; a placement that
//!   fails to deploy aborts the migration with the old cluster intact.
//! * **PAUSE** — `pause_ingress`: park new injections and quiesce until
//!   every in-flight packet has delivered or nacked. Packets injected
//!   during the window are queued, never rejected.
//! * **FLUSH** — `process_digests`: run the `DrainDigests` barrier so
//!   every learn digest emitted by pre-pause traffic has been turned into
//!   an installed entry before state is captured.
//! * **SNAPSHOT** — `snapshot_state`: checkpoint every pipelet's dynamic
//!   state, then split it **per NF** by the `<nf>__` merged-name prefix so
//!   each NF's tables can land wherever the new placement puts them.
//! * **SWAP** — `swap_member` on every member: adopt the new switches.
//!   Their dynamic state is empty and their clocks are zero.
//! * **RESYNC** — `advance_time` over empty tables to the maximum
//!   snapshotted clock. Restoring *before* resyncing would stamp entries
//!   at clock 0 and the resync would mass-evict them; this ordering makes
//!   the fresh idle stamps land at the restored clock.
//! * **RESTORE** — `restore_state` each NF's slice onto its new (switch,
//!   pipelet) home; dropped entries are reported, not silently lost.
//! * **REMAP** — `remap_nfs`: flip the NF→switch routing so learned
//!   entries and installs target the new homes.
//! * **RESUME** — `resume_ingress`: release parked traffic in arrival
//!   order. Migration downtime is the PAUSE→RESUME wall-clock span, and
//!   [`MigrationOutcome::phases_ns`] splits it by phase.
//!
//! A failure anywhere from PAUSE on still runs RESUME before the error is
//! returned, so parked and later packets resolve instead of waiting
//! forever. A failure before SWAP leaves the old members serving with
//! their state untouched.

use crate::chain::ChainSet;
use crate::deploy::{DeployError, DeployOptions, Deployment};
use crate::multiswitch::{build_cluster_members, ClusterPlacement, ClusterWiring};
use crate::nfmodule::NfModule;
use crate::transport::{ClusterError, ClusterHandle};
use dejavu_asic::{PipeletId, PortId, StateSnapshot, Switch, TofinoProfile};
use std::collections::BTreeMap;
use std::time::Instant;

/// One NF changing (or keeping) its home during a migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfMove {
    /// The NF (deployment name).
    pub nf: String,
    /// Old cluster position.
    pub from: usize,
    /// New cluster position.
    pub to: usize,
}

/// The difference between two cluster placements: which NFs move.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementDelta {
    /// NFs whose switch changes, in canonical order.
    pub moves: Vec<NfMove>,
}

impl PlacementDelta {
    /// Diffs two placements over the given NFs. NFs unplaced on either
    /// side are skipped (the deploy layer rejects them anyway).
    pub fn between(old: &ClusterPlacement, new: &ClusterPlacement, nfs: &[String]) -> Self {
        let moves = nfs
            .iter()
            .filter_map(|nf| {
                let from = old.switch_of(nf)?;
                let to = new.switch_of(nf)?;
                (from != to).then(|| NfMove {
                    nf: nf.clone(),
                    from,
                    to,
                })
            })
            .collect();
        PlacementDelta { moves }
    }

    /// No NF changes switches.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Everything needed to rebuild cluster members for a new placement —
/// the same inputs `spawn_cluster` took, minus the transport (the live
/// cluster keeps its wiring; only switches are swapped).
pub struct FleetSpec<'a> {
    /// The NF modules, by reference (modules are compiled per placement).
    pub nfs: &'a [&'a NfModule],
    /// The chain policies being served.
    pub chains: &'a ChainSet,
    /// The ASIC profile members are built against.
    pub profile: &'a TofinoProfile,
    /// Chain path id → cluster exit port.
    pub exit_ports: BTreeMap<u16, PortId>,
    /// Inter-member cabling model.
    pub wiring: &'a ClusterWiring,
    /// Deploy-time options (entry NF, composition overrides, …).
    pub deploy: &'a DeployOptions,
}

/// One step of the migration window, in execution order (BUILD runs
/// before the window opens and is not timed here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Park ingress and quiesce in-flight packets.
    Pause,
    /// Turn pending learn digests into installed entries.
    Flush,
    /// Checkpoint every pipelet and split the state per NF.
    Snapshot,
    /// Adopt the new members.
    Swap,
    /// Advance the new members' clocks to the snapshotted clock.
    Resync,
    /// Restore each NF's state onto its new home.
    Restore,
    /// Point NF routing at the new homes.
    Remap,
    /// Release parked traffic.
    Resume,
}

impl MigrationPhase {
    /// Every phase, in execution order.
    pub const ALL: [MigrationPhase; 8] = [
        MigrationPhase::Pause,
        MigrationPhase::Flush,
        MigrationPhase::Snapshot,
        MigrationPhase::Swap,
        MigrationPhase::Resync,
        MigrationPhase::Restore,
        MigrationPhase::Remap,
        MigrationPhase::Resume,
    ];

    /// Lower-case phase name, as printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            MigrationPhase::Pause => "pause",
            MigrationPhase::Flush => "flush",
            MigrationPhase::Snapshot => "snapshot",
            MigrationPhase::Swap => "swap",
            MigrationPhase::Resync => "resync",
            MigrationPhase::Restore => "restore",
            MigrationPhase::Remap => "remap",
            MigrationPhase::Resume => "resume",
        }
    }
}

/// Times consecutive phases from one start instant, so the phases tile the
/// window and never sum to more than it.
struct PhaseClock {
    started: Instant,
    lap: Instant,
    phases_ns: Vec<(MigrationPhase, u64)>,
}

impl PhaseClock {
    fn start() -> Self {
        let now = Instant::now();
        PhaseClock {
            started: now,
            lap: now,
            phases_ns: Vec::with_capacity(MigrationPhase::ALL.len()),
        }
    }

    /// Closes `phase` at the current instant.
    fn lap(&mut self, phase: MigrationPhase) {
        let now = Instant::now();
        let ns = (now - self.lap).as_nanos() as u64;
        self.phases_ns.push((phase, ns));
        self.lap = now;
    }

    /// Nanoseconds from start to the last closed phase.
    fn total_ns(&self) -> u64 {
        (self.lap - self.started).as_nanos() as u64
    }
}

/// What a completed migration did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationOutcome {
    /// Which NFs changed switches.
    pub moves: Vec<NfMove>,
    /// Dynamic entries restored for *moving* NFs — the learned flows that
    /// crossed switches alive.
    pub flows_migrated: u64,
    /// Dynamic entries restored across the whole fleet (moving and
    /// staying NFs both; every member is rebuilt, so all state is
    /// re-seated).
    pub restored_entries: u64,
    /// Packets that arrived during the pause window and were parked, then
    /// released on resume.
    pub parked_packets: u64,
    /// Packets that were mid-flight when the pause began (the quiesce
    /// barrier waited for them).
    pub quiesced_packets: u64,
    /// PAUSE→RESUME wall-clock time — the migration's downtime window.
    pub duration_ns: u64,
    /// Wall-clock time per phase, one entry per [`MigrationPhase`] in
    /// execution order. The phases are consecutive slices of the window,
    /// so they sum to at most `duration_ns`.
    pub phases_ns: Vec<(MigrationPhase, u64)>,
}

/// Why a migration failed.
#[derive(Debug)]
pub enum MigrationError {
    /// The new placement failed to compile/deploy (old cluster intact).
    Deploy(DeployError),
    /// A live cluster operation failed mid-migration.
    Cluster(ClusterError),
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::Deploy(e) => write!(f, "building new placement: {e}"),
            MigrationError::Cluster(e) => write!(f, "migrating live cluster: {e}"),
        }
    }
}

impl std::error::Error for MigrationError {}

impl From<DeployError> for MigrationError {
    fn from(e: DeployError) -> Self {
        MigrationError::Deploy(e)
    }
}

impl From<ClusterError> for MigrationError {
    fn from(e: ClusterError) -> Self {
        MigrationError::Cluster(e)
    }
}

/// Splits a pipelet snapshot into one snapshot per NF, keyed by the
/// `<nf>__` merged-name prefix the deploy layer scopes tables and
/// registers with.
fn split_by_nf(snap: &StateSnapshot, nfs: &[String]) -> Vec<(String, StateSnapshot)> {
    let mut out = Vec::new();
    for nf in nfs {
        let prefix = format!("{nf}__");
        let mut piece = StateSnapshot::empty(&snap.program);
        piece.clock = snap.clock;
        piece.tables = snap
            .tables
            .iter()
            .filter(|t| t.name.starts_with(&prefix))
            .cloned()
            .collect();
        piece.registers = snap
            .registers
            .iter()
            .filter(|r| r.name.starts_with(&prefix))
            .cloned()
            .collect();
        if !piece.tables.is_empty() || !piece.registers.is_empty() {
            out.push((nf.clone(), piece));
        }
    }
    out
}

/// Executes a hitless migration of a live cluster onto `new_placement`.
///
/// On success the cluster serves the new placement with every learned
/// flow re-seated; parked traffic has been released and will resolve
/// through the normal delivery path. On [`MigrationError::Deploy`] the
/// cluster is untouched. On [`MigrationError::Cluster`] ingress has been
/// resumed all the same: if the failure came before SWAP the old members
/// still serve with their state intact; after it, the cluster may be
/// mid-swap and should be torn down.
pub fn migrate(
    handle: &mut ClusterHandle,
    spec: &FleetSpec<'_>,
    old_placement: &ClusterPlacement,
    new_placement: &ClusterPlacement,
) -> Result<MigrationOutcome, MigrationError> {
    let nf_names: Vec<String> = spec.chains.all_nfs();
    let delta = PlacementDelta::between(old_placement, new_placement, &nf_names);

    // BUILD — before touching traffic, so deploy failures are harmless.
    let members = build_cluster_members(
        spec.nfs,
        spec.chains,
        new_placement,
        spec.profile,
        spec.exit_ports.clone(),
        spec.wiring,
        spec.deploy,
    )?;

    let mut clock = PhaseClock::start();
    let cut = cut_over(
        handle,
        &mut clock,
        members,
        &nf_names,
        &delta,
        new_placement,
    );

    // RESUME — release parked traffic; downtime window closes. This runs
    // even when the cut-over failed, so no packet stays parked.
    let resumed = handle.resume_ingress();
    clock.lap(MigrationPhase::Resume);
    let mut outcome = cut?;
    outcome.parked_packets = resumed?;
    outcome.duration_ns = clock.total_ns();
    outcome.phases_ns = clock.phases_ns;
    Ok(outcome)
}

/// PAUSE through REMAP: everything in the migration window except the
/// RESUME that closes it.
fn cut_over(
    handle: &mut ClusterHandle,
    clock: &mut PhaseClock,
    members: Vec<(Switch, Deployment)>,
    nf_names: &[String],
    delta: &PlacementDelta,
    new_placement: &ClusterPlacement,
) -> Result<MigrationOutcome, ClusterError> {
    // PAUSE — quiesce barrier; in-flight packets finish, new ones park.
    let quiesced_packets = handle.pause_ingress()?;
    clock.lap(MigrationPhase::Pause);

    // FLUSH — every digest from pre-pause traffic becomes an entry.
    handle.process_digests()?;
    clock.lap(MigrationPhase::Flush);

    // SNAPSHOT — checkpoint, then split per NF.
    let snapshots = handle.snapshot_state()?;
    let max_clock = snapshots.iter().map(|(_, _, s)| s.clock).max().unwrap_or(0);
    let mut per_nf: Vec<(String, StateSnapshot)> = Vec::new();
    for (_, _, snap) in &snapshots {
        per_nf.extend(split_by_nf(snap, nf_names));
    }
    clock.lap(MigrationPhase::Snapshot);

    // SWAP — adopt the new members (empty state, zero clocks).
    for (switch, (member_switch, deployment)) in members.into_iter().enumerate() {
        handle.swap_member(switch, member_switch, deployment)?;
    }
    clock.lap(MigrationPhase::Swap);

    // RESYNC — advance empty tables to the old clock so restored entries
    // get idle stamps that survive the next advance_time.
    if max_clock > 0 {
        handle.advance_time(max_clock)?;
    }
    clock.lap(MigrationPhase::Resync);

    // RESTORE — each NF's slice onto its new home.
    let mut outcome = MigrationOutcome {
        moves: delta.moves.clone(),
        quiesced_packets,
        ..MigrationOutcome::default()
    };
    for (nf, snap) in &per_nf {
        let Some(sw) = new_placement.switch_of(nf) else {
            continue;
        };
        let Some(pipelet) = new_placement.switches[sw].location(nf) else {
            continue;
        };
        let restored = handle.restore_state(sw, pipelet, snap)? as u64;
        outcome.restored_entries += restored;
        if delta.moves.iter().any(|m| &m.nf == nf) {
            outcome.flows_migrated += restored;
        }
    }
    clock.lap(MigrationPhase::Restore);

    // REMAP — route learned entries and installs to the new homes.
    let nf_switch: BTreeMap<String, usize> = nf_names
        .iter()
        .filter_map(|nf| new_placement.switch_of(nf).map(|sw| (nf.clone(), sw)))
        .collect();
    handle.remap_nfs(nf_switch)?;
    clock.lap(MigrationPhase::Remap);
    Ok(outcome)
}

/// Builds the pipelet→NF view the restore step needs for one member.
/// Exposed for tests that restore snapshots manually.
pub fn nf_location(placement: &ClusterPlacement, nf: &str) -> Option<(usize, PipeletId)> {
    let sw = placement.switch_of(nf)?;
    let pipelet = placement.switches[sw].location(nf)?;
    Some((sw, pipelet))
}
