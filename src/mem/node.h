/**
 * @file
 * A workstation node: one CPU, physical memory, a network adapter, and
 * a set of processes.
 *
 * The kernel-emulation layer (rmem::RmemEngine) attaches to a Node after
 * construction; Node itself stays independent of the remote-memory
 * protocol so the substrate can be reused by other communication models
 * (the RPC baseline runs over the very same nodes).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.h"
#include "mem/phys_mem.h"
#include "net/host_interface.h"
#include "obs/metrics.h"
#include "sim/cpu.h"
#include "sim/simulator.h"

namespace remora::mem {

/** Process identifier, unique within a node. */
using Pid = uint32_t;

/** A user process: a named address space. */
class Process
{
  public:
    /**
     * @param pid Node-unique id.
     * @param name Diagnostic name.
     * @param phys The node's physical memory.
     */
    Process(Pid pid, std::string name, PhysMem &phys)
        : pid_(pid), name_(std::move(name)), space_(phys)
    {}

    /** Node-unique process id. */
    Pid pid() const { return pid_; }

    /** The process's virtual memory. */
    AddressSpace &space() { return space_; }

  private:
    Pid pid_;
    /** Diagnostic name, for reading in a debugger. */
    std::string name_;
    AddressSpace space_;
};

/** Configuration for a node. */
struct NodeParams
{
    /** Physical memory size in frames. */
    size_t memFrames = 16384;
};

/** One workstation in the cluster. */
class Node
{
  public:
    /**
     * @param simulator Owning simulator.
     * @param id Cluster-unique address (also the NIC's cell address).
     * @param name Diagnostic name, e.g. "server".
     * @param params Sizing.
     */
    Node(sim::Simulator &simulator, net::NodeId id, std::string name,
         const NodeParams &params = {});

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    /** Create a process on this node. */
    Process &spawnProcess(const std::string &name);

    /** Look up a process by pid; nullptr when absent. */
    Process *findProcess(Pid pid);

    /** Cluster-unique node id. */
    net::NodeId id() const { return id_; }

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

    /** The node's single CPU. */
    sim::CpuResource &cpu() { return cpu_; }

    /** The node's network adapter. */
    net::HostInterface &nic() { return nic_; }

    /** The node's physical memory. */
    PhysMem &memory() { return mem_; }

    /** Owning simulator. */
    sim::Simulator &simulator() { return sim_; }

    /**
     * Register this node's CPU busy-time gauges (per category, in
     * microseconds) and NIC counters under "<prefix>.cpu" / "<prefix>.nic".
     */
    void registerStats(obs::MetricRegistry &reg,
                       const std::string &prefix) const;

  private:
    sim::Simulator &sim_;
    net::NodeId id_;
    std::string name_;
    PhysMem mem_;
    sim::CpuResource cpu_;
    net::HostInterface nic_;
    Pid nextPid_ = 1;
    std::vector<std::unique_ptr<Process>> processes_;
};

} // namespace remora::mem
