#include "deisa/core/adaptor.hpp"

#include "deisa/obs/trace.hpp"

namespace deisa::core {

Adaptor::Adaptor(dts::Client& client, Mode mode)
    : client_(&client), mode_(mode) {}

exec::Co<std::vector<VirtualArray>> Adaptor::get_deisa_arrays() {
  obs::Span span = obs::trace_span("adaptor", "contract", "get_deisa_arrays");
  const dts::Data d = co_await client_->variable_get(kArraysVariable);
  offered_ = d.as<std::vector<VirtualArray>>();
  got_arrays_ = true;
  co_return offered_;
}

void Adaptor::select(const std::string& name, array::Selection selection) {
  DEISA_CHECK(got_arrays_, "call get_deisa_arrays() before selecting");
  DEISA_CHECK(!signed_, "contract already signed");
  contract_.selections[name] = std::move(selection.box);
}

void Adaptor::select_all(const std::string& name) {
  for (const auto& va : offered_) {
    if (va.name == name) {
      select(name, array::Selection::all(va.shape));
      return;
    }
  }
  throw util::ContractError("no virtual array named '" + name + "'");
}

namespace {

/// Build the DArray for a selected virtual array and collect the keys and
/// preselected workers of the chunks inside the selection.
std::pair<std::vector<dts::Key>, std::vector<int>> selected_chunks(
    const array::DArray& da, const array::Box& box) {
  std::vector<dts::Key> keys;
  std::vector<int> workers;
  for (const array::Index& c : da.grid().chunks_overlapping(box)) {
    keys.push_back(da.key_of(c));
    workers.push_back(da.worker_of(c));
  }
  return {std::move(keys), std::move(workers)};
}

}  // namespace

exec::Co<std::map<std::string, array::DArray>> Adaptor::validate_contract() {
  obs::Span span = obs::trace_span("adaptor", "contract", "validate_contract");
  DEISA_CHECK(got_arrays_, "no arrays received yet");
  DEISA_CHECK(!contract_.selections.empty(), "no selection recorded");
  DEISA_CHECK(uses_external_tasks(mode_),
              "validate_contract() is the DEISA2/3 path");
  contract_.validate_against(offered_);
  contract_.num_workers = client_->num_workers();

  std::map<std::string, array::DArray> out;
  for (const auto& [name, box] : contract_.selections) {
    const VirtualArray* va = nullptr;
    for (const auto& a : offered_)
      if (a.name == name) va = &a;
    DEISA_ASSERT(va != nullptr, "validated selection lost its array");
    array::DArray da =
        array::DArray::descriptor(*client_, name, va->shape, va->subsize);
    // External tasks only for the chunks the analytics will consume:
    // blocks outside the contract are never sent, so they must not leave
    // tasks pending in the scheduler.
    auto [keys, workers] = selected_chunks(da, box);
    external_futures_ += keys.size();
    co_await client_->external_futures(std::move(keys), std::move(workers));
    out.emplace(name, std::move(da));
  }
  // Send the filters back to all bridges at once: ONE contract variable
  // (plus the arrays variable) instead of nbr_ranks queues.
  Contract copy = contract_;
  const std::uint64_t bytes = 256 + 96 * copy.selections.size();
  co_await client_->variable_set(kContractVariable,
                                 dts::Data::make<Contract>(std::move(copy),
                                                           bytes));
  signed_ = true;
  co_return out;
}

exec::Co<std::map<std::string, array::DArray>> Adaptor::deisa1_publish_selection(
    int nranks) {
  obs::Span span =
      obs::trace_span("adaptor", "contract", "deisa1_publish_selection");
  DEISA_CHECK(mode_ == Mode::kDeisa1, "deisa1_publish_selection needs DEISA1");
  DEISA_CHECK(got_arrays_, "no arrays received yet");
  contract_.validate_against(offered_);
  contract_.num_workers = client_->num_workers();
  std::map<std::string, array::DArray> out;
  for (const auto& [name, box] : contract_.selections) {
    const VirtualArray* va = nullptr;
    for (const auto& a : offered_)
      if (a.name == name) va = &a;
    DEISA_ASSERT(va != nullptr, "validated selection lost its array");
    out.emplace(name, array::DArray::descriptor(*client_, name, va->shape,
                                                va->subsize));
  }
  // One queue per rank, as in the HiPC'21 prototype.
  for (int r = 0; r < nranks; ++r) {
    Contract copy = contract_;
    const std::uint64_t bytes = 256 + 96 * copy.selections.size();
    co_await client_->queue_put(deisa1_selection_queue(r),
                                dts::Data::make<Contract>(std::move(copy),
                                                          bytes));
  }
  signed_ = true;
  co_return out;
}

exec::Co<void> Adaptor::deisa1_wait_step(int nranks) {
  for (int r = 0; r < nranks; ++r)
    (void)co_await client_->queue_get(kDeisa1ReadyQueue);
}

}  // namespace deisa::core
