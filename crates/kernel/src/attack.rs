//! Attack simulations: what a kernel-level adversary does after
//! exploiting a vulnerability (threat model, paper §4).
//!
//! Each attack is expressed as the exact machine operations a rootkit
//! would perform from EL1 — direct stores through the kernel linear map,
//! forged page-table edits, rogue `TTBR` loads. Whether an attack
//! *succeeds*, is *blocked* (Hypersec denies the operation), or succeeds
//! but is *detected* (the MBM observes the write and a security
//! application flags it) depends entirely on the installed protection —
//! which is what the integration tests assert.

use hypernel_machine::addr::{PhysAddr, PAGE_SIZE};
use hypernel_machine::machine::{Exception, Hyp, Machine};
use hypernel_machine::pagetable::{self, Descriptor, PagePerms};
use hypernel_machine::regs::SysReg;
use hypernel_machine::shadow::PageTag;

use crate::abi::Hypercall;
use crate::kernel::{Kernel, KernelError};
use crate::kobj::{CredField, DentryField, ObjectKind};
use crate::layout;
use crate::pgtable::PtRoute;
use crate::task::Pid;

/// What happened when the attack ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The malicious operation completed. (Detection, if any, happens
    /// asynchronously through the MBM.)
    Succeeded,
    /// The protection mechanism refused the operation.
    Blocked {
        /// The exception that stopped it.
        why: String,
    },
}

impl AttackOutcome {
    /// Returns `true` if the operation completed.
    pub fn succeeded(&self) -> bool {
        matches!(self, Self::Succeeded)
    }
}

impl std::fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Succeeded => write!(f, "succeeded"),
            Self::Blocked { why } => write!(f, "blocked: {why}"),
        }
    }
}

fn outcome_of(result: Result<(), Exception>) -> AttackOutcome {
    match result {
        Ok(()) => AttackOutcome::Succeeded,
        Err(e) => AttackOutcome::Blocked { why: e.to_string() },
    }
}

/// A single composable attacker action — the unit from which campaign
/// scenarios assemble attacker programs. Each variant names one of the
/// attack primitives below with enough parameters to run it against a
/// booted kernel, so scenario files can express attacks declaratively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackStep {
    /// [`Kernel::attack_cred_escalation`] against task `pid`.
    CredEscalation {
        /// Victim task.
        pid: u64,
    },
    /// [`Kernel::attack_dentry_hijack`] of `path`.
    DentryHijack {
        /// Cached path whose dentry is redirected.
        path: String,
        /// Forged inode value.
        rogue_inode: u64,
    },
    /// [`Kernel::attack_map_secure_region`] through task `pid`'s user
    /// root table.
    MapSecureRegion {
        /// Task whose user page-table root carries the forged entry.
        pid: u64,
    },
    /// [`Kernel::attack_pt_direct_write`] of `value` into task `pid`'s
    /// user root table.
    PtDirectWrite {
        /// Task whose user page-table root is targeted.
        pid: u64,
        /// Raw descriptor value stored.
        value: u64,
    },
    /// [`Kernel::attack_ttbr_redirect`].
    TtbrRedirect,
    /// [`Kernel::attack_code_injection`].
    CodeInjection,
    /// [`Kernel::attack_text_patch`].
    TextPatch,
    /// [`Kernel::attack_atra`] relocating task `pid`'s cred object.
    AtraCred {
        /// Task whose cred page is shadowed.
        pid: u64,
    },
    /// [`Kernel::attack_atra`] relocating `path`'s dentry.
    AtraDentry {
        /// Cached path whose dentry page is shadowed.
        path: String,
    },
    /// [`Kernel::attack_double_map`] aliasing task `pid`'s cred page.
    DoubleMapCred {
        /// Task whose cred page is double-mapped.
        pid: u64,
    },
    /// [`Kernel::attack_cross_domain_cred_theft`] between two composed
    /// domains.
    CrossDomainCredTheft {
        /// Compromised domain whose cred is forged.
        attacker: String,
        /// Domain whose identity is stolen.
        victim: String,
    },
    /// [`Kernel::attack_shared_region_toctou`] against a composed
    /// shared region.
    SharedRegionToctou {
        /// Composed region whose validated contents are rewritten.
        region: String,
    },
    /// [`Kernel::attack_channel_spoof`] against a composed channel.
    ChannelSpoof {
        /// Composed channel whose header is forged.
        channel: String,
    },
    /// [`Kernel::attack_hypercall_probe`] with hypercall number `nr`.
    HypercallProbe {
        /// Hypercall number to issue (defaults to one outside the ABI).
        nr: u64,
    },
    /// [`Kernel::attack_sysreg_probe`].
    SysregProbe,
    /// [`Kernel::attack_pt_forge_probe`].
    PtForgeProbe,
}

/// One parameter of an [`AttackStep`], borrowed in place so a loader
/// can overwrite it and a serializer can print it.
#[derive(Debug)]
pub enum StepParam<'a> {
    /// An integer: pid, inode, descriptor value, hypercall number.
    Int(&'a mut u64),
    /// A name: path, domain, region, channel.
    Text(&'a mut String),
}

impl AttackStep {
    /// One step of every kind, in declaration order, carrying its
    /// kind's default parameters — the step vocabulary every name list
    /// and default derives from.
    pub fn defaults() -> [AttackStep; 16] {
        let sh = || "/bin/sh".to_string();
        [
            Self::CredEscalation { pid: 1 },
            Self::DentryHijack {
                path: sh(),
                rogue_inode: 0xBAD,
            },
            Self::MapSecureRegion { pid: 1 },
            Self::PtDirectWrite {
                pid: 1,
                value: 0xBAD,
            },
            Self::TtbrRedirect,
            Self::CodeInjection,
            Self::TextPatch,
            Self::AtraCred { pid: 1 },
            Self::AtraDentry { path: sh() },
            Self::DoubleMapCred { pid: 1 },
            Self::CrossDomainCredTheft {
                attacker: "client".to_string(),
                victim: "server".to_string(),
            },
            Self::SharedRegionToctou {
                region: "shared".to_string(),
            },
            Self::ChannelSpoof {
                channel: "chan".to_string(),
            },
            Self::HypercallProbe { nr: 0xDEAD },
            Self::SysregProbe,
            Self::PtForgeProbe,
        ]
    }

    /// The step's parameters as `(key, field)` pairs, keyed and ordered
    /// as scenario files spell them.
    pub fn params_mut(&mut self) -> Vec<(&'static str, StepParam<'_>)> {
        use StepParam::{Int, Text};
        match self {
            Self::CredEscalation { pid }
            | Self::MapSecureRegion { pid }
            | Self::AtraCred { pid }
            | Self::DoubleMapCred { pid } => vec![("pid", Int(pid))],
            Self::DentryHijack { path, rogue_inode } => {
                vec![("path", Text(path)), ("rogue-inode", Int(rogue_inode))]
            }
            Self::PtDirectWrite { pid, value } => vec![("pid", Int(pid)), ("value", Int(value))],
            Self::AtraDentry { path } => vec![("path", Text(path))],
            Self::CrossDomainCredTheft { attacker, victim } => {
                vec![("attacker", Text(attacker)), ("victim", Text(victim))]
            }
            Self::SharedRegionToctou { region } => vec![("region", Text(region))],
            Self::ChannelSpoof { channel } => vec![("channel", Text(channel))],
            Self::HypercallProbe { nr } => vec![("nr", Int(nr))],
            Self::TtbrRedirect
            | Self::CodeInjection
            | Self::TextPatch
            | Self::SysregProbe
            | Self::PtForgeProbe => Vec::new(),
        }
    }

    /// Stable kebab-case identifier (scenario files and run records).
    pub fn name(&self) -> &'static str {
        match self {
            Self::CredEscalation { .. } => "cred-escalation",
            Self::DentryHijack { .. } => "dentry-hijack",
            Self::MapSecureRegion { .. } => "map-secure-region",
            Self::PtDirectWrite { .. } => "pt-direct-write",
            Self::TtbrRedirect => "ttbr-redirect",
            Self::CodeInjection => "code-injection",
            Self::TextPatch => "text-patch",
            Self::AtraCred { .. } => "atra-cred",
            Self::AtraDentry { .. } => "atra-dentry",
            Self::DoubleMapCred { .. } => "double-map-cred",
            Self::CrossDomainCredTheft { .. } => "cross-domain-cred-theft",
            Self::SharedRegionToctou { .. } => "shared-region-toctou",
            Self::ChannelSpoof { .. } => "channel-spoof",
            Self::HypercallProbe { .. } => "hypercall-probe",
            Self::SysregProbe => "sysreg-probe",
            Self::PtForgeProbe => "pt-forge-probe",
        }
    }
}

/// What running one [`AttackStep`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepResult {
    /// Whether the malicious operation completed or was refused.
    pub outcome: AttackOutcome,
    /// Physical span `(base, len)` inside a *monitored* kernel object
    /// that the step wrote (or tried to write), if any. When the outcome
    /// is `Succeeded` and the object is watched, the MBM must have seen
    /// a write in this span — the detection oracle's ground truth.
    pub monitored: Option<(PhysAddr, u64)>,
}

impl Kernel {
    /// **Privilege escalation**: overwrite the sensitive fields of a
    /// task's `cred` with root identity — the classic
    /// `commit_creds(prepare_kernel_cred(0))` rootkit payload, performed
    /// as raw stores through the linear map.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchTask`] for an unknown pid.
    pub fn attack_cred_escalation(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        pid: Pid,
    ) -> Result<AttackOutcome, KernelError> {
        let cred = self.task(pid).ok_or(KernelError::NoSuchTask(pid))?.cred;
        for field in [CredField::Uid, CredField::Euid, CredField::Fsuid] {
            let va = layout::kva(cred.add(field.byte_offset()));
            if let Err(e) = m.write_u64(va, 0, hyp) {
                return Ok(AttackOutcome::Blocked { why: e.to_string() });
            }
        }
        let cap_va = layout::kva(cred.add(CredField::CapEffective.byte_offset()));
        Ok(outcome_of(m.write_u64(cap_va, u64::MAX, hyp)))
    }

    /// **VFS hijack**: redirect a dentry's inode pointer so operations on
    /// the path reach attacker-controlled state (paper footnote 2).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchPath`] if the path is not cached.
    pub fn attack_dentry_hijack(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        path: &str,
        rogue_inode: u64,
    ) -> Result<AttackOutcome, KernelError> {
        let dentry = self
            .dentry_of(path)
            .ok_or_else(|| KernelError::NoSuchPath(path.to_string()))?;
        let va = layout::kva(dentry.add(DentryField::Inode.byte_offset()));
        Ok(outcome_of(m.write_u64(va, rogue_inode, hyp)))
    }

    /// **Secure-region mapping**: try to create a kernel mapping of
    /// Hypersec's memory by submitting a forged leaf descriptor through
    /// the regular page-table update channel (paper §5.2.1's example).
    pub fn attack_map_secure_region(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        table: PhysAddr,
        index: usize,
    ) -> AttackOutcome {
        let desc = Descriptor::Leaf {
            out: PhysAddr::new(layout::SECURE_BASE),
            perms: PagePerms::KERNEL_DATA,
        }
        .encode();
        match self.config().pt_route {
            PtRoute::Hypercall => {
                let (nr, args) = Hypercall::PtWrite {
                    table,
                    index,
                    value: desc,
                }
                .encode();
                outcome_of(m.hvc(nr, args, hyp).map(|_| ()))
            }
            PtRoute::Direct => {
                outcome_of(m.write_u64(layout::kva(table.add(index as u64 * 8)), desc, hyp))
            }
        }
    }

    /// **Direct page-table tampering**: skip the hypercall interface and
    /// store straight into a page-table page via the linear map (what a
    /// rootkit unaware of — or probing — Hypernel would try first).
    pub fn attack_pt_direct_write(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        table: PhysAddr,
        index: usize,
        value: u64,
    ) -> AttackOutcome {
        outcome_of(m.write_u64(layout::kva(table.add(index as u64 * 8)), value, hyp))
    }

    /// **TTBR redirect**: build a private translation root in plain
    /// kernel data memory (those stores are legitimate) and try to load
    /// it into `TTBR0_EL1` — bypassing every verified table (§5.2.2).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::OutOfFrames`] if no frame is available for
    /// the rogue table.
    pub fn attack_ttbr_redirect(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
    ) -> Result<AttackOutcome, KernelError> {
        let rogue = self.alloc_raw_frame()?;
        m.tag_page(rogue, PageTag::KernelData);
        m.debug_zero_page(rogue);
        // An identity block mapping of all low memory, built with plain
        // data stores (nothing illegal about writing one's own page).
        let entry = Descriptor::Leaf {
            out: PhysAddr::new(0),
            perms: PagePerms {
                write: true,
                exec: false,
                user: true,
                cacheable: true,
            },
        }
        .encode();
        if let Err(e) = m.write_u64(layout::kva(rogue), entry, hyp) {
            return Ok(AttackOutcome::Blocked { why: e.to_string() });
        }
        Ok(outcome_of(m.write_sysreg(
            SysReg::TTBR0_EL1,
            rogue.raw(),
            hyp,
        )))
    }

    /// **Kernel code injection**: write shellcode into a kernel data
    /// page, then try to make it executable and run it. W⊕X stops the
    /// direct jump everywhere; the difference between configurations is
    /// the *remap*: a native kernel freely flips its own page
    /// permissions, while Hypersec rejects any writable+executable
    /// mapping (paper §5.2.1's W⊕X policy).
    ///
    /// Returns `Succeeded` only if the injected code actually executed.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::OutOfFrames`] if no scratch frame exists.
    pub fn attack_code_injection(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
    ) -> Result<AttackOutcome, KernelError> {
        let frame = self.alloc_raw_frame()?;
        m.tag_page(frame, PageTag::KernelData);
        m.debug_zero_page(frame);
        let code_va = layout::kva(frame);
        // Step 1: plant the shellcode — a plain data write, always lands.
        if let Err(e) = m.write_u64(code_va, 0xD65F03C0 /* RET */, hyp) {
            return Ok(AttackOutcome::Blocked { why: e.to_string() });
        }
        // Step 2: direct jump — W⊕X page permissions abort the fetch.
        if m.fetch(code_va, hyp).is_ok() {
            return Ok(AttackOutcome::Succeeded);
        }
        // Step 3: remap the page writable+executable through the page
        // table machinery, then retry.
        let write = {
            let mut view = m.pt_view();
            pagetable::plan_protect(
                &mut view,
                self.kernel_root(),
                code_va.raw(),
                PagePerms {
                    write: true,
                    exec: true,
                    user: false,
                    cacheable: true,
                },
            )
        };
        let Some(w) = write else {
            return Ok(AttackOutcome::Blocked {
                why: "shellcode page not mapped".into(),
            });
        };
        let remap = match self.config().pt_route {
            PtRoute::Hypercall => {
                let (nr, args) = Hypercall::PtWrite {
                    table: w.table,
                    index: w.index,
                    value: w.value,
                }
                .encode();
                m.hvc(nr, args, hyp).map(|_| ())
            }
            PtRoute::Direct => m.write_u64(layout::kva(w.addr()), w.value, hyp),
        };
        if let Err(e) = remap {
            return Ok(AttackOutcome::Blocked { why: e.to_string() });
        }
        m.tlbi_va(code_va);
        Ok(match m.fetch(code_va, hyp) {
            Ok(_) => AttackOutcome::Succeeded,
            Err(e) => AttackOutcome::Blocked { why: e.to_string() },
        })
    }

    /// **Kernel text patching**: overwrite an instruction in the kernel
    /// image (inline-hook rootkits). The text is W⊕X, so the store
    /// faults; the attacker then tries (a) Hypersec's write-emulation
    /// channel and (b) remapping the text page writable. A native kernel
    /// remaps freely; Hypersec rejects both (deliberately-RO pages are
    /// not emulatable, and a writable text mapping violates W⊕X... and
    /// the linear-identity + perms rules).
    ///
    /// Returns `Succeeded` only if the text word actually changed.
    pub fn attack_text_patch(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
    ) -> Result<AttackOutcome, KernelError> {
        let target = PhysAddr::new(layout::KERNEL_IMAGE_BASE + 0x1_0000);
        let va = layout::kva(target);
        let payload = 0x1400_0000u64; // an unconditional branch
                                      // Direct store: W^X text mapping aborts it.
        if m.write_u64(va, payload, hyp).is_ok() {
            return Ok(AttackOutcome::Succeeded);
        }
        // Channel (a): the emulation hypercall (only reachable when an
        // EL2 handler exists).
        if self.config().pt_route == PtRoute::Hypercall {
            let (nr, args) = Hypercall::EmulateWrite { va, value: payload }.encode();
            if m.hvc(nr, args, hyp).is_ok() {
                return Ok(AttackOutcome::Succeeded);
            }
        }
        // Channel (b): remap the text page writable, then store.
        let write = {
            let mut view = m.pt_view();
            pagetable::plan_protect(
                &mut view,
                self.kernel_root(),
                va.raw(),
                PagePerms::KERNEL_DATA,
            )
        };
        let Some(w) = write else {
            return Ok(AttackOutcome::Blocked {
                why: "text not mapped".into(),
            });
        };
        let remap = match self.config().pt_route {
            PtRoute::Hypercall => {
                let (nr, args) = Hypercall::PtWrite {
                    table: w.table,
                    index: w.index,
                    value: w.value,
                }
                .encode();
                m.hvc(nr, args, hyp).map(|_| ())
            }
            PtRoute::Direct => m.write_u64(layout::kva(w.addr()), w.value, hyp),
        };
        if let Err(e) = remap {
            return Ok(AttackOutcome::Blocked { why: e.to_string() });
        }
        m.tlbi_va(va);
        Ok(outcome_of(m.write_u64(va, payload, hyp)))
    }

    /// **ATRA** (address translation redirection attack, [Jang et al.,
    /// CCS'14]): relocate a monitored object by remapping the kernel
    /// linear-map page that holds it to a shadow copy. A bare external
    /// monitor keeps watching the stale physical address and goes blind;
    /// Hypersec's linear-identity rule rejects the remap (paper §5.3).
    ///
    /// Returns the shadow frame on success so tests can show the monitor
    /// missed the redirected writes.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::OutOfFrames`] if no shadow frame is
    /// available.
    pub fn attack_atra(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        target: PhysAddr,
    ) -> Result<(AttackOutcome, PhysAddr), KernelError> {
        let shadow = self.alloc_raw_frame()?;
        m.tag_page(shadow, PageTag::KernelData);
        m.debug_zero_page(shadow);
        // Copy the victim page so reads stay consistent post-redirect.
        let src_page = target.page_base();
        for w in 0..(PAGE_SIZE / 8) {
            let v = m.debug_read_phys(src_page.add(w * 8));
            m.debug_write_phys(shadow.add(w * 8), v);
        }
        // Remap the linear-map leaf for the victim page onto the shadow.
        let victim_va = layout::kva(src_page);
        let write = {
            let mut view = m.pt_view();
            pagetable::plan_protect(
                &mut view,
                self.kernel_root(),
                victim_va.raw(),
                PagePerms::KERNEL_DATA,
            )
        };
        let Some(mut w) = write else {
            return Ok((
                AttackOutcome::Blocked {
                    why: "victim page not mapped".into(),
                },
                shadow,
            ));
        };
        w.value = Descriptor::Leaf {
            out: shadow,
            perms: PagePerms::KERNEL_DATA,
        }
        .encode();
        let result = match self.config().pt_route {
            PtRoute::Hypercall => {
                let (nr, args) = Hypercall::PtWrite {
                    table: w.table,
                    index: w.index,
                    value: w.value,
                }
                .encode();
                m.hvc(nr, args, hyp).map(|_| ())
            }
            PtRoute::Direct => m.write_u64(layout::kva(w.addr()), w.value, hyp),
        };
        if result.is_ok() {
            m.tlbi_va(victim_va);
        }
        Ok((outcome_of(result), shadow))
    }

    /// **Double mapping**: alias a scratch page's linear-map leaf onto a
    /// victim page, creating a second writable mapping, then race the
    /// monitor by storing through the alias. The linear-map VA of the
    /// victim still reads consistently, so in-kernel integrity checks
    /// walking the expected VA see nothing amiss. Hypersec's
    /// linear-identity rule (`kva(p)` must map `p`, paper §5.3) rejects
    /// the aliasing remap outright.
    ///
    /// On success the store lands at `target`'s physical word — on the
    /// bus, at the true address — so a *bus-level* monitor still sees it;
    /// the attack defeats VA-based protections, not the MBM.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::OutOfFrames`] if no scratch frame is
    /// available for the alias.
    pub fn attack_double_map(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        target: PhysAddr,
        value: u64,
    ) -> Result<AttackOutcome, KernelError> {
        let alias = self.alloc_raw_frame()?;
        m.tag_page(alias, PageTag::KernelData);
        m.debug_zero_page(alias);
        let alias_va = layout::kva(alias);
        let write = {
            let mut view = m.pt_view();
            pagetable::plan_protect(
                &mut view,
                self.kernel_root(),
                alias_va.raw(),
                PagePerms::KERNEL_DATA,
            )
        };
        let Some(mut w) = write else {
            return Ok(AttackOutcome::Blocked {
                why: "alias page not mapped".into(),
            });
        };
        w.value = Descriptor::Leaf {
            out: target.page_base(),
            perms: PagePerms::KERNEL_DATA,
        }
        .encode();
        let remap = match self.config().pt_route {
            PtRoute::Hypercall => {
                let (nr, args) = Hypercall::PtWrite {
                    table: w.table,
                    index: w.index,
                    value: w.value,
                }
                .encode();
                m.hvc(nr, args, hyp).map(|_| ())
            }
            PtRoute::Direct => m.write_u64(layout::kva(w.addr()), w.value, hyp),
        };
        if let Err(e) = remap {
            return Ok(AttackOutcome::Blocked { why: e.to_string() });
        }
        m.tlbi_va(alias_va);
        // Store through the alias at the victim's in-page offset.
        let off = target.offset_from(target.page_base());
        Ok(outcome_of(m.write_u64(
            layout::kva(alias.add(off)),
            value,
            hyp,
        )))
    }

    /// **Cross-domain credential theft**: a compromised composed
    /// domain forges its own `cred` identity fields to the values read
    /// from another domain's cred — impersonating the victim across a
    /// protection-domain boundary with plain linear-map stores. The
    /// flat scenario model cannot express this: it needs two named
    /// domains to exist. Every cred is a monitored object, so under
    /// Hypernel the forging stores are classic post-commit rewrites.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchDomain`] for unknown domain names.
    pub fn attack_cross_domain_cred_theft(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        attacker: &str,
        victim: &str,
    ) -> Result<AttackOutcome, KernelError> {
        let attacker_pid = self.compose_domain(attacker)?.pid();
        let victim_pid = self.compose_domain(victim)?.pid();
        let forged = self
            .task(attacker_pid)
            .ok_or(KernelError::NoSuchTask(attacker_pid))?
            .cred;
        let stolen = self
            .task(victim_pid)
            .ok_or(KernelError::NoSuchTask(victim_pid))?
            .cred;
        for field in [CredField::Uid, CredField::Euid, CredField::Fsuid] {
            // Reading the victim's identity is unremarkable; *writing*
            // it into the attacker's committed cred is the signature.
            let value = m.debug_read_phys(stolen.add(field.byte_offset()));
            let va = layout::kva(forged.add(field.byte_offset()));
            if let Err(e) = m.write_u64(va, value, hyp) {
                return Ok(AttackOutcome::Blocked { why: e.to_string() });
            }
        }
        Ok(AttackOutcome::Succeeded)
    }

    /// **Shared-region TOCTOU**: rewrite the owner-validated first word
    /// of a composed shared region after the owner stamped it — the
    /// window where a racing sharer swaps checked data for malicious
    /// data. Campaign scenarios race this against the MBM capture
    /// window with `delay-irq` faults. When the region is `protect`ed
    /// the derived watch set covers the page and the rewrite flags;
    /// unprotected or baseline-mode regions absorb it silently.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchRegion`] for unknown region names.
    pub fn attack_shared_region_toctou(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        region: &str,
    ) -> Result<AttackOutcome, KernelError> {
        let info = self.compose_region(region)?;
        let va = layout::kva(info.frames[0]);
        Ok(outcome_of(m.write_u64(va, 0x70C_70D1D, hyp)))
    }

    /// **Channel spoofing**: forge a composed channel's sender word so
    /// messages appear to originate from a different domain — the IPC
    /// analogue of source-address spoofing. The header was written
    /// exactly once by the lowering, so under the derived watch set the
    /// forgery is a rewrite of a watched word.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchChannel`] for unknown channel
    /// names.
    pub fn attack_channel_spoof(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        channel: &str,
    ) -> Result<AttackOutcome, KernelError> {
        let info = self.compose_channel(channel)?;
        let va = layout::kva(info.header_pa());
        Ok(outcome_of(m.write_u64(va, 0xBAD_5EED, hyp)))
    }

    /// **Hypercall-interface probe**: issue an `HVC` with an arbitrary
    /// call number — what a rootkit fingerprinting the EL2 software
    /// does first. Hypersec rejects unknown numbers at the ABI decode
    /// boundary; a hypervisor-less machine and KVM (which exposes no
    /// hypercall interface to this guest) refuse the trap outright.
    pub fn attack_hypercall_probe(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        nr: u64,
    ) -> AttackOutcome {
        outcome_of(m.hvc(nr, [0, 0, 0, 0], hyp).map(|_| ()))
    }

    /// **Frozen-sysreg probe**: rewrite `TCR_EL1` with its current
    /// value. The write is semantically a no-op, but under Hypernel the
    /// translation-configuration registers are frozen after LOCK
    /// (`HCR_EL2.TVM`), so even the identity rewrite is denied; without
    /// the trap the store lands silently.
    pub fn attack_sysreg_probe(&mut self, m: &mut Machine, hyp: &mut dyn Hyp) -> AttackOutcome {
        let current = m.read_sysreg(SysReg::TCR_EL1);
        outcome_of(m.write_sysreg(SysReg::TCR_EL1, current, hyp))
    }

    /// **Forged table-handle probe**: submit a `PtWrite` hypercall
    /// whose `table` argument is a plain data frame that was never
    /// registered as a page table. Hypersec's write verifier rejects
    /// the unknown handle before even decoding the descriptor; modes
    /// without the hypercall interface refuse the trap itself.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::OutOfFrames`] if no scratch frame is
    /// available for the forged handle.
    pub fn attack_pt_forge_probe(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
    ) -> Result<AttackOutcome, KernelError> {
        let forged = self.alloc_raw_frame()?;
        m.tag_page(forged, PageTag::KernelData);
        m.debug_zero_page(forged);
        let (nr, args) = Hypercall::PtWrite {
            table: forged,
            index: 0,
            value: 0,
        }
        .encode();
        Ok(outcome_of(m.hvc(nr, args, hyp).map(|_| ())))
    }

    /// Runs one composable [`AttackStep`], resolving its parameters
    /// (pids, paths) against live kernel state.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchTask`] / [`KernelError::NoSuchPath`]
    /// for dangling references and propagates allocation failures from
    /// the underlying primitives.
    pub fn run_attack_step(
        &mut self,
        m: &mut Machine,
        hyp: &mut dyn Hyp,
        step: &AttackStep,
    ) -> Result<StepResult, KernelError> {
        let cred_of = |k: &mut Kernel, pid: u64| {
            k.task(Pid(pid))
                .map(|t| t.cred)
                .ok_or(KernelError::NoSuchTask(Pid(pid)))
        };
        let dentry_at = |k: &mut Kernel, path: &str| {
            k.dentry_of(path)
                .ok_or_else(|| KernelError::NoSuchPath(path.to_string()))
        };
        Ok(match step {
            AttackStep::CredEscalation { pid } => {
                let cred = cred_of(self, *pid)?;
                StepResult {
                    outcome: self.attack_cred_escalation(m, hyp, Pid(*pid))?,
                    monitored: Some((cred, ObjectKind::Cred.bytes())),
                }
            }
            AttackStep::DentryHijack { path, rogue_inode } => {
                let dentry = dentry_at(self, path)?;
                StepResult {
                    outcome: self.attack_dentry_hijack(m, hyp, path, *rogue_inode)?,
                    monitored: Some((dentry.add(DentryField::Inode.byte_offset()), 8)),
                }
            }
            AttackStep::MapSecureRegion { pid } => {
                let root = self
                    .task(Pid(*pid))
                    .map(|t| t.user_root)
                    .ok_or(KernelError::NoSuchTask(Pid(*pid)))?;
                StepResult {
                    outcome: self.attack_map_secure_region(m, hyp, root, 5),
                    monitored: None,
                }
            }
            AttackStep::PtDirectWrite { pid, value } => {
                let root = self
                    .task(Pid(*pid))
                    .map(|t| t.user_root)
                    .ok_or(KernelError::NoSuchTask(Pid(*pid)))?;
                StepResult {
                    outcome: self.attack_pt_direct_write(m, hyp, root, 5, *value),
                    monitored: None,
                }
            }
            AttackStep::TtbrRedirect => StepResult {
                outcome: self.attack_ttbr_redirect(m, hyp)?,
                monitored: None,
            },
            AttackStep::CodeInjection => StepResult {
                outcome: self.attack_code_injection(m, hyp)?,
                monitored: None,
            },
            AttackStep::TextPatch => StepResult {
                outcome: self.attack_text_patch(m, hyp)?,
                monitored: None,
            },
            AttackStep::AtraCred { pid } => {
                let cred = cred_of(self, *pid)?;
                StepResult {
                    outcome: self.attack_atra(m, hyp, cred)?.0,
                    monitored: None,
                }
            }
            AttackStep::AtraDentry { path } => {
                let dentry = dentry_at(self, path)?;
                StepResult {
                    outcome: self.attack_atra(m, hyp, dentry)?.0,
                    monitored: None,
                }
            }
            AttackStep::DoubleMapCred { pid } => {
                let cred = cred_of(self, *pid)?;
                let euid = cred.add(CredField::Euid.byte_offset());
                StepResult {
                    outcome: self.attack_double_map(m, hyp, euid, 0)?,
                    monitored: Some((euid, 8)),
                }
            }
            AttackStep::CrossDomainCredTheft { attacker, victim } => {
                let forged = {
                    let pid = self.compose_domain(attacker)?.pid();
                    cred_of(self, pid.0)?
                };
                StepResult {
                    outcome: self.attack_cross_domain_cred_theft(m, hyp, attacker, victim)?,
                    monitored: Some((forged, ObjectKind::Cred.bytes())),
                }
            }
            AttackStep::SharedRegionToctou { region } => {
                let word = self.compose_region(region)?.frames[0];
                StepResult {
                    outcome: self.attack_shared_region_toctou(m, hyp, region)?,
                    monitored: Some((word, 8)),
                }
            }
            AttackStep::ChannelSpoof { channel } => {
                let header = self.compose_channel(channel)?.header_pa();
                StepResult {
                    outcome: self.attack_channel_spoof(m, hyp, channel)?,
                    monitored: Some((header, 8)),
                }
            }
            AttackStep::HypercallProbe { nr } => StepResult {
                outcome: self.attack_hypercall_probe(m, hyp, *nr),
                monitored: None,
            },
            AttackStep::SysregProbe => StepResult {
                outcome: self.attack_sysreg_probe(m, hyp),
                monitored: None,
            },
            AttackStep::PtForgeProbe => StepResult {
                outcome: self.attack_pt_forge_probe(m, hyp)?,
                monitored: None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use hypernel_machine::machine::{MachineConfig, NullHyp};

    fn boot() -> (Machine, NullHyp, Kernel) {
        let mut m = Machine::new(MachineConfig {
            dram_size: layout::DRAM_SIZE,
            ..MachineConfig::default()
        });
        let mut hyp = NullHyp;
        let k = Kernel::boot(&mut m, &mut hyp, KernelConfig::native()).expect("boot");
        (m, hyp, k)
    }

    #[test]
    fn native_kernel_is_defenseless_against_cred_escalation() {
        let (mut m, mut hyp, mut k) = boot();
        let outcome = k
            .attack_cred_escalation(&mut m, &mut hyp, Pid(1))
            .expect("attack runs");
        assert!(outcome.succeeded());
        let cred = k.task(Pid(1)).unwrap().cred;
        let euid = m.debug_read_phys(cred.add(CredField::Euid.byte_offset()));
        assert_eq!(euid, 0, "euid forged to root");
    }

    #[test]
    fn native_kernel_allows_dentry_hijack() {
        let (mut m, mut hyp, mut k) = boot();
        let outcome = k
            .attack_dentry_hijack(&mut m, &mut hyp, "/bin/sh", 0xBAD)
            .expect("attack runs");
        assert!(outcome.succeeded());
    }

    #[test]
    fn native_kernel_allows_ttbr_redirect() {
        let (mut m, mut hyp, mut k) = boot();
        let outcome = k
            .attack_ttbr_redirect(&mut m, &mut hyp)
            .expect("attack runs");
        assert!(outcome.succeeded(), "{outcome}");
    }

    #[test]
    fn native_kernel_allows_atra() {
        let (mut m, mut hyp, mut k) = boot();
        let target = k.task(Pid(1)).unwrap().cred;
        let (outcome, shadow) = k
            .attack_atra(&mut m, &mut hyp, target)
            .expect("attack runs");
        assert!(outcome.succeeded(), "{outcome}");
        // Writes through the linear VA now land in the shadow frame.
        let va = layout::kva(target.add(CredField::Euid.byte_offset()));
        m.write_u64(va, 0x1337, &mut hyp).expect("redirected write");
        let off = target.offset_from(target.page_base()) + CredField::Euid.byte_offset();
        assert_eq!(m.debug_read_phys(shadow.add(off)), 0x1337);
        // …while the original physical object is untouched.
        assert_ne!(
            m.debug_read_phys(target.add(CredField::Euid.byte_offset())),
            0x1337
        );
    }

    #[test]
    fn native_kernel_allows_text_patching_via_remap() {
        let (mut m, mut hyp, mut k) = boot();
        let outcome = k.attack_text_patch(&mut m, &mut hyp).expect("attack runs");
        assert!(outcome.succeeded(), "{outcome}");
        let patched = m.debug_read_phys(PhysAddr::new(layout::KERNEL_IMAGE_BASE + 0x1_0000));
        assert_eq!(patched, 0x1400_0000);
    }

    #[test]
    fn native_kernel_allows_code_injection_via_remap() {
        let (mut m, mut hyp, mut k) = boot();
        let outcome = k
            .attack_code_injection(&mut m, &mut hyp)
            .expect("attack runs");
        assert!(outcome.succeeded(), "{outcome}");
    }

    #[test]
    fn native_kernel_allows_double_mapping() {
        let (mut m, mut hyp, mut k) = boot();
        let cred = k.task(Pid(1)).unwrap().cred;
        let euid = cred.add(CredField::Euid.byte_offset());
        let outcome = k
            .attack_double_map(&mut m, &mut hyp, euid, 0x1337)
            .expect("attack runs");
        assert!(outcome.succeeded(), "{outcome}");
        // The aliased store landed on the victim's physical word.
        assert_eq!(m.debug_read_phys(euid), 0x1337);
    }

    #[test]
    fn run_attack_step_resolves_parameters() {
        let (mut m, mut hyp, mut k) = boot();
        let cred = k.task(Pid(1)).unwrap().cred;
        let r = k
            .run_attack_step(&mut m, &mut hyp, &AttackStep::CredEscalation { pid: 1 })
            .expect("step runs");
        assert!(r.outcome.succeeded());
        assert_eq!(r.monitored, Some((cred, ObjectKind::Cred.bytes())));
        let r = k
            .run_attack_step(&mut m, &mut hyp, &AttackStep::TtbrRedirect)
            .expect("step runs");
        assert!(r.outcome.succeeded());
        assert_eq!(r.monitored, None);
        // Dangling references surface as kernel errors, not outcomes.
        assert!(k
            .run_attack_step(&mut m, &mut hyp, &AttackStep::CredEscalation { pid: 999 })
            .is_err());
    }

    #[test]
    fn attack_step_names_are_stable() {
        assert_eq!(
            AttackStep::CredEscalation { pid: 1 }.name(),
            "cred-escalation"
        );
        assert_eq!(
            AttackStep::DoubleMapCred { pid: 1 }.name(),
            "double-map-cred"
        );
        assert_eq!(
            AttackStep::AtraDentry {
                path: "/bin/sh".into()
            }
            .name(),
            "atra-dentry"
        );
    }

    #[test]
    fn outcome_display() {
        assert_eq!(AttackOutcome::Succeeded.to_string(), "succeeded");
        let b = AttackOutcome::Blocked { why: "nope".into() };
        assert_eq!(b.to_string(), "blocked: nope");
        assert!(!b.succeeded());
    }

    #[test]
    fn native_kernel_refuses_hypercall_probe() {
        // Without EL2 software the trap itself is the failure.
        let (mut m, mut hyp, mut k) = boot();
        let outcome = k.attack_hypercall_probe(&mut m, &mut hyp, 0xDEAD);
        assert!(!outcome.succeeded(), "{outcome}");
    }

    #[test]
    fn native_kernel_allows_sysreg_probe() {
        // No TVM trap configured: the identity rewrite lands silently.
        let (mut m, mut hyp, mut k) = boot();
        let outcome = k.attack_sysreg_probe(&mut m, &mut hyp);
        assert!(outcome.succeeded(), "{outcome}");
    }

    #[test]
    fn native_kernel_refuses_pt_forge_probe() {
        // The forged handle travels over the hypercall interface, which
        // does not exist here — blocked at the trap, not at the check.
        let (mut m, mut hyp, mut k) = boot();
        let outcome = k.attack_pt_forge_probe(&mut m, &mut hyp).expect("runs");
        assert!(!outcome.succeeded(), "{outcome}");
    }

    #[test]
    fn probe_steps_resolve_and_are_unmonitored() {
        let (mut m, mut hyp, mut k) = boot();
        for step in [
            AttackStep::HypercallProbe { nr: 0xDEAD },
            AttackStep::SysregProbe,
            AttackStep::PtForgeProbe,
        ] {
            let r = k.run_attack_step(&mut m, &mut hyp, &step).expect("runs");
            assert_eq!(r.monitored, None, "{} touches no watched word", step.name());
        }
    }
}
