// Fixture: a serving-layer file locking with the raw standard types must
// trip R7 (annotated locks only): the thread-safety analysis cannot see
// what a std::mutex guards, so src/ locks through the sync:: wrappers.
#include <mutex>
#include <shared_mutex>
#include <vector>

class registry {
public:
    std::size_t size() const {
        std::shared_lock lock(mu_);
        return ids_.size();
    }
    void add(int id) {
        std::lock_guard<std::shared_mutex> lock(mu_);
        ids_.push_back(id);
    }

private:
    mutable std::shared_mutex mu_;
    std::vector<int> ids_;
};
