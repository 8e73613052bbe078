// Ablation 4: mirror-side log reordering (paper §3).
//
// The mirror reorders records into true validation order before applying
// and storing them, so (a) it never undoes anything and (b) recovery is a
// single forward pass. We quantify both halves:
//   * reorder buffering: staged-transaction depth as a function of how far
//     write-phase completion order strays from validation order;
//   * recovery: peak buffered transactions when replaying an ordered log
//     (mirror-written) versus an unordered one (lone-node-written).
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "rodain/common/rng.hpp"
#include "rodain/exp/args.hpp"
#include "rodain/exp/report.hpp"
#include "rodain/exp/session.hpp"
#include "rodain/log/reorder.hpp"

using namespace rodain;

namespace {

/// Build a stream of per-txn record batches whose arrival order deviates
/// from seq order by up to `skew` positions (bounded reordering, the shape
/// overlapping write phases produce).
std::vector<std::vector<log::Record>> skewed_stream(std::size_t txns,
                                                    std::size_t skew,
                                                    Rng& rng) {
  std::vector<std::vector<log::Record>> batches(txns);
  for (std::size_t i = 0; i < txns; ++i) {
    const auto seq = static_cast<ValidationTs>(i + 1);
    storage::Value v{std::string_view{"after-image-payload-0123456789ab", 32}};
    batches[i].push_back(log::Record::write_image(seq, 1 + (i % 100), v));
    batches[i].push_back(log::Record::write_image(seq, 101 + (i % 100), v));
    batches[i].push_back(log::Record::commit(seq, seq, seq * cc::kTsSpacing, 2));
  }
  // Bounded shuffle: swap each batch with one up to `skew` ahead.
  for (std::size_t i = 0; i + 1 < batches.size(); ++i) {
    const std::size_t j =
        i + rng.next_below(std::min(skew + 1, batches.size() - i));
    std::swap(batches[i], batches[j]);
  }
  return batches;
}

void reorder_depth_study(const exp::BenchArgs& args, exp::BenchReport& rep) {
  std::printf("--- reorder buffering vs write-phase skew (%zu txns) ---\n",
              args.txns);
  exp::SeriesPrinter printer("skew", {"max staged", "released in order"});
  for (std::size_t skew : {0uz, 2uz, 8uz, 32uz, 128uz}) {
    Rng rng(args.seed + skew);
    auto batches = skewed_stream(args.txns, skew, rng);
    std::size_t max_staged = 0;
    ValidationTs last_released = 0;
    bool in_order = true;
    log::Reorderer reorderer([&](std::vector<log::ReleasedTxn> epoch) {
      for (const log::ReleasedTxn& t : epoch) {
        in_order &= (t.seq == last_released + 1);
        last_released = t.seq;
      }
    });
    for (auto& batch : batches) {
      for (auto& record : batch) (void)reorderer.add(std::move(record));
      max_staged = std::max(max_staged, reorderer.staged_commits());
      reorderer.flush_epoch();  // one wire batch per transaction
    }
    printer.add_row(static_cast<double>(skew),
                    {static_cast<double>(max_staged), in_order ? 1.0 : 0.0});
    char label[48];
    std::snprintf(label, sizeof label, "reorder skew=%zu", skew);
    rep.begin_result(label);
    rep.field("skew", static_cast<std::int64_t>(skew));
    rep.field("max_staged", static_cast<std::int64_t>(max_staged));
    rep.field("released_in_order", in_order ? 1.0 : 0.0);
  }
  printer.print();
}

void recovery_pass_study(const exp::BenchArgs& args, exp::BenchReport& rep) {
  std::printf("\n--- recovery buffering: ordered (mirror) vs unordered (lone "
              "node) log ---\n");
  // Simulate the recovery reader's buffering requirement directly: an
  // ordered log releases each transaction the moment its commit record is
  // read; an unordered one must hold transactions until the gap closes.
  exp::SeriesPrinter printer("skew", {"peak buffered txns", "single-pass"});
  for (std::size_t skew : {0uz, 8uz, 128uz, 1024uz}) {
    Rng rng(args.seed + skew);
    auto batches = skewed_stream(args.txns, skew, rng);
    std::size_t peak = 0;
    ValidationTs next = 1;
    std::map<ValidationTs, bool> pending;
    for (const auto& batch : batches) {
      const ValidationTs seq = batch.back().seq;
      pending.emplace(seq, true);
      while (!pending.empty() && pending.begin()->first == next) {
        pending.erase(pending.begin());
        ++next;
      }
      peak = std::max(peak, pending.size());
    }
    printer.add_row(static_cast<double>(skew),
                    {static_cast<double>(peak), peak <= 1 ? 1.0 : 0.0});
    char label[48];
    std::snprintf(label, sizeof label, "recovery skew=%zu", skew);
    rep.begin_result(label);
    rep.field("skew", static_cast<std::int64_t>(skew));
    rep.field("peak_buffered_txns", static_cast<std::int64_t>(peak));
    rep.field("single_pass", peak <= 1 ? 1.0 : 0.0);
  }
  printer.print();
  std::printf("  => the mirror's reordering moves this buffering off the "
              "recovery path: a mirror-written log replays with O(1) state.\n");
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchArgs args = exp::BenchArgs::parse(argc, argv);
  args.txns = std::min<std::size_t>(args.txns, 20000);
  exp::BenchReport rep("reorder_ablation");
  rep.set("txns", static_cast<std::int64_t>(args.txns));
  rep.set("seed", static_cast<std::int64_t>(args.seed));
  std::printf("=== Ablation 4: mirror log reordering ===\n\n");
  reorder_depth_study(args, rep);
  recovery_pass_study(args, rep);
  rep.write_file();
  return 0;
}
