#include "p2p/peer.h"

#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(MakePopulationTest, MixRoughlyRespected) {
  Rng rng(1);
  PopulationMix mix;
  mix.free_rider_fraction = 0.3;
  mix.colluder_fraction = 0.1;
  auto peers = MakePopulation(2000, mix, rng);
  auto fr = PeersWithStrategy(peers, PeerStrategy::kFreeRider);
  auto col = PeersWithStrategy(peers, PeerStrategy::kColluder);
  EXPECT_NEAR(fr.size() / 2000.0, 0.3, 0.05);
  EXPECT_NEAR(col.size() / 2000.0, 0.1, 0.03);
  for (const auto& p : peers) {
    EXPECT_GE(p.service_quality, 0.5);
    EXPECT_LE(p.service_quality, 1.0);
  }
}

}  // namespace
}  // namespace dgt
