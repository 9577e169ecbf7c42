#include "qac/telemetry/telemetry.h"

#include <algorithm>
#include <fstream>

#include "qac/util/json.h"

namespace qac::telemetry {

void
ReadRecorder::record(uint64_t sweep, double energy, double schedule,
                     uint64_t accepts, uint64_t proposals)
{
    if (!has_best_ || energy < best_) {
        best_ = energy;
        has_best_ = true;
    }
    SweepPoint p;
    p.sweep = sweep;
    p.energy = energy;
    p.best_energy = best_;
    const uint64_t da = accepts - prev_accepts_;
    const uint64_t dp = proposals - prev_proposals_;
    p.acceptance =
        dp > 0 ? static_cast<double>(da) / static_cast<double>(dp) : 0.0;
    p.schedule = schedule;
    prev_accepts_ = accepts;
    prev_proposals_ = proposals;

    if (capacity_ == 0)
        return;
    if (points_.size() < capacity_) {
        points_.push_back(p);
    } else {
        points_[head_] = p;
        head_ = (head_ + 1) % capacity_;
    }
}

void
ReadRecorder::finish(double final_energy, uint64_t sweeps,
                     uint64_t accepts, uint64_t proposals)
{
    final_energy_ = final_energy;
    sweeps_ = sweeps;
    accepts_ = accepts;
    proposals_ = proposals;
    finished_ = true;
}

std::vector<SweepPoint>
ReadRecorder::chronologicalPoints() const
{
    std::vector<SweepPoint> out;
    out.reserve(points_.size());
    // head_ is the oldest entry once the ring wrapped; before that the
    // vector is already chronological (head_ == 0).
    for (size_t k = 0; k < points_.size(); ++k)
        out.push_back(points_[(head_ + k) % points_.size()]);
    return out;
}

Collector &
Collector::global()
{
    static Collector instance;
    return instance;
}

bool
Collector::setEnabled(bool enabled)
{
    return enabled_.exchange(enabled, std::memory_order_relaxed);
}

void
Collector::configure(const Config &config)
{
    std::lock_guard<std::mutex> lock(mu_);
    config_ = config;
    if (config_.stride == 0)
        config_.stride = 1;
}

Config
Collector::config() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return config_;
}

RunTrace *
Collector::beginRun(const char *solver, uint32_t num_reads)
{
    if (!enabled())
        return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    runs_.emplace_back();
    RunTrace &run = runs_.back();
    run.solver = solver;
    run.num_reads = num_reads;
    const uint32_t traced = std::min(num_reads, config_.max_reads);
    run.reads.resize(traced);
    for (uint32_t r = 0; r < traced; ++r) {
        run.reads[r].read_ = r;
        run.reads[r].stride_ = std::max<uint32_t>(1, config_.stride);
        run.reads[r].capacity_ = config_.capacity;
    }
    return &run;
}

void
Collector::addRecord(std::string json_object)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    extra_.push_back(std::move(json_object));
}

void
Collector::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    runs_.clear();
    extra_.clear();
}

size_t
Collector::numRuns() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return runs_.size();
}

namespace {

void
appendReadRecord(std::string &out, const RunTrace &run, size_t run_idx,
                 const ReadRecorder &r)
{
    using util::json::appendDouble;
    using util::json::appendString;
    using util::json::appendU64;

    out += "{\"kind\":\"read\",\"solver\":";
    appendString(out, run.solver);
    out += ",\"run\":";
    appendU64(out, run_idx);
    out += ",\"read\":";
    appendU64(out, r.read());
    out += ",\"final_energy\":";
    appendDouble(out, r.finalEnergy());
    out += ",\"sweeps\":";
    appendU64(out, r.sweeps());
    out += ",\"accepts\":";
    appendU64(out, r.accepts());
    out += ",\"proposals\":";
    appendU64(out, r.proposals());
    out += ",\"points\":[";
    bool first = true;
    for (const SweepPoint &p : r.chronologicalPoints()) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"sweep\":";
        appendU64(out, p.sweep);
        out += ",\"energy\":";
        appendDouble(out, p.energy);
        out += ",\"best\":";
        appendDouble(out, p.best_energy);
        out += ",\"accept\":";
        appendDouble(out, p.acceptance);
        out += ",\"schedule\":";
        appendDouble(out, p.schedule);
        out += '}';
    }
    out += "]}\n";
}

} // namespace

std::string
Collector::toJsonl(const std::string &manifest_record) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    if (!manifest_record.empty()) {
        out += manifest_record;
        out += '\n';
    }
    size_t run_idx = 0;
    for (const RunTrace &run : runs_) {
        for (const ReadRecorder &r : run.reads) {
            if (!r.finished())
                continue; // read never executed (skipped sampler path)
            appendReadRecord(out, run, run_idx, r);
        }
        ++run_idx;
    }
    for (const std::string &line : extra_) {
        out += line;
        out += '\n';
    }
    return out;
}

bool
Collector::writeFile(const std::string &path,
                     const std::string &manifest_record) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << toJsonl(manifest_record);
    return static_cast<bool>(os);
}

} // namespace qac::telemetry
