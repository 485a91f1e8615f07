//===- TransformStateTest.cpp - Handle tracking unit tests ----------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for TransformState's handle tracking: consume-time
/// invalidation (both the subtree probe and the parent walk), the payload-op
/// -> holding-handles index behind replacePayloadOp, rebinding through every
/// mutator without stale index entries, adoptBinding between states, and
/// replay of a recorded Consume event after its ops were erased.
///
//===----------------------------------------------------------------------===//

#include "core/Transform.h"

#include "dialect/Dialects.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <memory>

using namespace tdl;

namespace {

class TransformStateTest : public ::testing::Test {
protected:
  TransformStateTest() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
    Payload = parseSourceString(Ctx, R"(
      "builtin.module"() ({
        "func.func"() ({
        ^bb0(%m: memref<8x8xf64>):
          %lb = "arith.constant"() {value = 0 : index} : () -> (index)
          %ub = "arith.constant"() {value = 8 : index} : () -> (index)
          %one = "arith.constant"() {value = 1 : index} : () -> (index)
          "scf.for"(%lb, %ub, %one) ({
          ^outer(%i: index):
            "scf.for"(%lb, %ub, %one) ({
            ^inner(%j: index):
              %v = "memref.load"(%m, %i, %j)
                : (memref<8x8xf64>, index, index) -> (f64)
              "memref.store"(%v, %m, %j, %i)
                : (f64, memref<8x8xf64>, index, index) -> ()
              "scf.yield"() : () -> ()
            }) : (index, index, index) -> ()
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "func.return"() : () -> ()
        }) {sym_name = "f", function_type = (memref<8x8xf64>) -> ()}
          : () -> ()
        "func.func"() ({
          %c = "arith.constant"() {value = 1 : index} : () -> (index)
          "func.return"() : () -> ()
        }) {sym_name = "g", function_type = () -> ()} : () -> ()
      }) : () -> ()
    )");
    // Post-order walk: f before g, the inner loop before the outer one.
    Payload->walk([&](Operation *Op) {
      std::string_view Name = Op->getName();
      if (Name == "func.func")
        (F ? G : F) = Op;
      else if (Name == "scf.for")
        (Inner ? Outer : Inner) = Op;
      else if (Name == "memref.load")
        Load = Op;
      else if (Name == "func.return" && !Return)
        Return = Op;
    });
  }

  /// A fresh handle value, owned by the fixture.
  Value handle() {
    Keys.push_back(std::make_unique<ValueImpl>());
    Keys.back()->Ty = TransformAnyOpType::get(Ctx);
    return Value(Keys.back().get());
  }

  Value handleTo(TransformState &State, std::vector<Operation *> Ops) {
    Value H = handle();
    State.setPayload(H, std::move(Ops));
    return H;
  }

  Context Ctx;
  OwningOpRef Payload;
  Operation *F = nullptr, *G = nullptr, *Outer = nullptr, *Inner = nullptr,
            *Load = nullptr, *Return = nullptr;
  std::vector<std::unique_ptr<ValueImpl>> Keys;
};

TEST_F(TransformStateTest, FixtureFindsPayloadOps) {
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(F && G && Outer && Inner && Load && Return);
  EXPECT_EQ(Inner->getParentOp(), Outer);
  EXPECT_EQ(Return->getParentOp(), F);
  EXPECT_EQ(G->getParentOp(), Payload.get());
}

TEST_F(TransformStateTest, ConsumeInvalidatesSameAndNestedHandles) {
  TransformState State(Payload.get());
  Value Consumed = handleTo(State, {Outer});
  Value Alias = handleTo(State, {Outer});
  Value NestedLoop = handleTo(State, {Inner});
  Value Mixed = handleTo(State, {G, Load});
  State.consume(Consumed);
  EXPECT_TRUE(State.isInvalidated(Consumed));
  EXPECT_TRUE(State.isInvalidated(Alias));
  EXPECT_TRUE(State.isInvalidated(NestedLoop));
  EXPECT_TRUE(State.isInvalidated(Mixed)) << "one nested op is enough";
  // The consumed mapping stays readable for the consuming transform.
  EXPECT_EQ(State.getPayloadOps(Consumed), std::vector<Operation *>{Outer});
}

TEST_F(TransformStateTest, ConsumeKeepsAncestorAndSiblingHandlesValid) {
  TransformState State(Payload.get());
  Value Root = handleTo(State, {Payload.get()});
  Value Func = handleTo(State, {F});
  Value Sibling = handleTo(State, {Return});
  Value OtherFunc = handleTo(State, {G});
  Value Consumed = handleTo(State, {Outer});
  State.consume(Consumed);
  EXPECT_FALSE(State.isInvalidated(Root));
  EXPECT_FALSE(State.isInvalidated(Func));
  EXPECT_FALSE(State.isInvalidated(Sibling));
  EXPECT_FALSE(State.isInvalidated(OtherFunc));
}

TEST_F(TransformStateTest, ConsumeLargeSubtreeWalksParentsOfHeldOps) {
  // One live handle against a consumed subtree of a dozen ops: the subtree
  // probe runs out of budget and the parents of the held ops are walked.
  TransformState State(Payload.get());
  Value Consumed = handleTo(State, {F});
  Value NestedLoad = handleTo(State, {Load});
  State.consume(Consumed);
  EXPECT_TRUE(State.isInvalidated(NestedLoad));

  TransformState Second(Payload.get());
  Value Module = handleTo(Second, {Payload.get()});
  Value Outside = handleTo(Second, {G});
  Value Deep = handleTo(Second, {Load});
  Second.consume(handleTo(Second, {F}));
  EXPECT_FALSE(Second.isInvalidated(Module));
  EXPECT_FALSE(Second.isInvalidated(Outside));
  EXPECT_TRUE(Second.isInvalidated(Deep));
}

TEST_F(TransformStateTest, ConsumeLeavesParamHandlesUntouched) {
  TransformState State(Payload.get());
  Value Param = handle();
  State.setParams(Param, {IntegerAttr::getIndex(Ctx, 4)});
  Value Nested = handleTo(State, {Inner});
  State.consume(handleTo(State, {Payload.get()}));
  EXPECT_TRUE(State.isInvalidated(Nested));
  EXPECT_FALSE(State.isInvalidated(Param));
  ASSERT_TRUE(State.isParam(Param));
  EXPECT_EQ(State.getParams(Param).size(), 1u);
}

TEST_F(TransformStateTest, ReplaceRewiresEveryHolderAndDuplicates) {
  TransformState State(Payload.get());
  Value Both = handleTo(State, {Outer, Load});
  Value Only = handleTo(State, {Outer});
  Value Twice = handleTo(State, {Load, Return, Load});
  Value Untouched = handleTo(State, {Return});

  State.replacePayloadOp(Outer, {G, Inner});
  EXPECT_EQ(State.getPayloadOps(Both),
            (std::vector<Operation *>{G, Inner, Load}));
  EXPECT_EQ(State.getPayloadOps(Only), (std::vector<Operation *>{G, Inner}));

  State.replacePayloadOp(Load, {F});
  EXPECT_EQ(State.getPayloadOps(Twice),
            (std::vector<Operation *>{F, Return, F}));
  State.erasePayloadOp(Return);
  EXPECT_EQ(State.getPayloadOps(Twice), (std::vector<Operation *>{F, F}));
  EXPECT_TRUE(State.getPayloadOps(Untouched).empty());

  // The index followed the rewrites: consuming the replacement G reaches
  // every handle now holding it, and nothing that never did.
  Value Fresh = handleTo(State, {Return});
  State.consume(handleTo(State, {G}));
  EXPECT_TRUE(State.isInvalidated(Both));
  EXPECT_TRUE(State.isInvalidated(Only));
  EXPECT_FALSE(State.isInvalidated(Twice));
  EXPECT_FALSE(State.isInvalidated(Fresh));
}

TEST_F(TransformStateTest, ReplaceSkipsInvalidatedHandles) {
  TransformState State(Payload.get());
  Value Consumed = handleTo(State, {Outer});
  State.consume(Consumed);
  State.replacePayloadOp(Outer, {G});
  EXPECT_EQ(State.getPayloadOps(Consumed), std::vector<Operation *>{Outer});
}

TEST_F(TransformStateTest, ReboundHandlesKeepNoStaleIndexEntries) {
  TransformState State(Payload.get());
  Value ByPayload = handleTo(State, {Inner});
  Value ByParams = handleTo(State, {Inner});
  Value Forgotten = handleTo(State, {Inner});
  State.setPayload(ByPayload, {G});
  State.setParams(ByParams, {IntegerAttr::getIndex(Ctx, 2)});
  State.forget(Forgotten);

  // Replacing an old op must not rewire a handle that let go of it.
  State.replacePayloadOp(Inner, {Return});
  EXPECT_EQ(State.getPayloadOps(ByPayload), std::vector<Operation *>{G});
  EXPECT_TRUE(State.getPayloadOps(ByParams).empty());
  EXPECT_TRUE(State.getPayloadOps(Forgotten).empty());

  // Consuming the old ops (and the op a stale entry would have been
  // rewired to) invalidates none of them.
  State.consume(handleTo(State, {Outer}));
  State.consume(handleTo(State, {Return}));
  EXPECT_FALSE(State.isInvalidated(ByPayload));
  EXPECT_FALSE(State.isInvalidated(ByParams));
  EXPECT_FALSE(State.isInvalidated(Forgotten));

  // An invalidated handle rebound by setPayload is live again and indexed
  // under its new ops only.
  Value Revived = handleTo(State, {Load});
  State.consume(handleTo(State, {Load}));
  ASSERT_TRUE(State.isInvalidated(Revived));
  State.setPayload(Revived, {Return});
  EXPECT_FALSE(State.isInvalidated(Revived));
  State.replacePayloadOp(Return, {G});
  EXPECT_EQ(State.getPayloadOps(Revived), std::vector<Operation *>{G});
  EXPECT_EQ(State.getPayloadOps(ByPayload), std::vector<Operation *>{G});
}

TEST_F(TransformStateTest, AdoptBindingKeepsIndexConsistent) {
  TransformState Driver(Payload.get());
  TransformState Worker(Payload.get());
  Value Live = handleTo(Driver, {Inner});
  Value Stale = handleTo(Driver, {Load});
  Driver.consume(handleTo(Driver, {Load}));
  ASSERT_TRUE(Driver.isInvalidated(Stale));
  // The worker already binds Live elsewhere; adoption replaces that.
  Worker.setPayload(Live, {G});

  Worker.adoptBinding(Live, Driver);
  Worker.adoptBinding(Stale, Driver);
  EXPECT_EQ(Worker.getPayloadOps(Live), std::vector<Operation *>{Inner});
  EXPECT_FALSE(Worker.isInvalidated(Live));
  EXPECT_TRUE(Worker.isInvalidated(Stale));

  // The worker's own old binding is gone from its index...
  Worker.consume(handleTo(Worker, {G}));
  EXPECT_FALSE(Worker.isInvalidated(Live));
  // ...the adopted one is tracked...
  Worker.replacePayloadOp(Inner, {Return});
  EXPECT_EQ(Worker.getPayloadOps(Live), std::vector<Operation *>{Return});
  // ...and the invalidated one is not.
  Worker.replacePayloadOp(Load, {Return});
  EXPECT_EQ(Worker.getPayloadOps(Stale), std::vector<Operation *>{Load});
  // None of it leaks back into the driver.
  EXPECT_EQ(Driver.getPayloadOps(Live), std::vector<Operation *>{Inner});
  EXPECT_FALSE(Driver.isInvalidated(Live));
}

TEST_F(TransformStateTest, ReplayedConsumeInvalidatesByIdentityAfterErase) {
  TransformState Driver(Payload.get());
  Value NestedLoop = handleTo(Driver, {Inner});
  Value NestedLoad = handleTo(Driver, {Load});
  Value Func = handleTo(Driver, {F});
  Value OtherFunc = handleTo(Driver, {G});

  TransformState Worker(Payload.get());
  Worker.enableEventLog();
  Value Consumed = handleTo(Worker, {Outer});
  Worker.consume(Consumed);
  // The consuming action frees the ops before the driver replays.
  Outer->erase();
  Outer = Inner = Load = nullptr;

  std::vector<PayloadEvent> Events = Worker.takeEvents();
  ASSERT_EQ(Events.size(), 1u);
  ASSERT_EQ(Events[0].EventKind, PayloadEvent::Kind::Consume);
  // outer, inner, load, store and the two scf.yield terminators.
  EXPECT_EQ(Events[0].Ops.size(), 6u);
  Driver.invalidateAliasesByIdentity(Events[0].Ops);
  EXPECT_TRUE(Driver.isInvalidated(NestedLoop));
  EXPECT_TRUE(Driver.isInvalidated(NestedLoad));
  EXPECT_FALSE(Driver.isInvalidated(Func));
  EXPECT_FALSE(Driver.isInvalidated(OtherFunc));
}

} // namespace
