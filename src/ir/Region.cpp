//===- Region.cpp ---------------------------------------------------===//

#include "ir/Region.h"

using namespace irdl;

Block &Region::emplaceBlock(TypeRange ArgTypes) {
  assert(Ctx && "region has no context");
  Block *B = Block::create(*Ctx, ArgTypes);
  push_back(B);
  return *B;
}

Region::iterator Region::insert(iterator Pos, Block *B) {
  assert(!B->getParent() && "block is already in a region");
  B->setParentInternal(this);
  return Blocks.insert(Pos, B);
}

void Region::push_back(Block *B) { insert(end(), B); }

void Region::remove(Block *B) {
  assert(B->getParent() == this && "block is not in this region");
  B->setParentInternal(nullptr);
  Blocks.remove(B);
}

void Region::erase(Block *B) {
  remove(B);
  B->destroy();
}

Region::~Region() {
  // A region inside an op goes down with it, and the op's teardown has
  // dropped the references already; a detached region is its own
  // outermost teardown.
  if (!ParentOp)
    dropAllReferences();
}

void Region::dropAllReferences() {
  for (Block &B : Blocks)
    B.dropAllReferences();
}

void Region::takeBody(Region &Other) {
  assert(Other.Ctx == Ctx && "taking blocks across contexts");
  for (Block &B : Other)
    B.setParentInternal(this);
  Blocks.splice(end(), Other.Blocks);
}
